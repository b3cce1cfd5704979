// Shared helpers for the test suite.

#ifndef CONFLUENCE_TESTS_TEST_UTIL_H_
#define CONFLUENCE_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/event.h"
#include "core/record.h"
#include "core/token.h"
#include "window/windowed_receiver.h"

namespace cwf::testutil {

/// \brief Record token {k1=v1, k2=v2, ...} from pairs.
inline Token Rec(std::initializer_list<std::pair<std::string, Value>> fields) {
  auto rec = std::make_shared<Record>();
  for (const auto& [name, value] : fields) {
    rec->Set(name, value);
  }
  return Token(RecordPtr(std::move(rec)));
}

/// \brief A CWEvent with a fresh root wave.
inline CWEvent Ev(Token token, int64_t ts_us, uint64_t root = 0,
                  uint64_t seq = 0) {
  static uint64_t auto_root = 1000000;
  CWEvent e;
  e.token = std::move(token);
  e.timestamp = Timestamp(ts_us);
  e.wave = WaveTag::Root(root == 0 ? ++auto_root : root);
  e.last_in_wave = true;
  e.seq = seq;
  return e;
}

/// \brief Extract int payloads from a window.
inline std::vector<int64_t> Ints(const Window& w) {
  std::vector<int64_t> out;
  for (const CWEvent& e : w.events) {
    out.push_back(e.token.AsInt());
  }
  return out;
}

/// \brief A plain FIFO receiver for `port`: the SingleEvent spec makes
/// every event its own window, in arrival order.
inline std::unique_ptr<Receiver> FifoReceiver(InputPort* port) {
  return std::make_unique<WindowedReceiver>(port, WindowSpec::SingleEvent());
}

}  // namespace cwf::testutil

#endif  // CONFLUENCE_TESTS_TEST_UTIL_H_
