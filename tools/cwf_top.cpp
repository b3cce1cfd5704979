// cwf_top: live per-actor statistics viewer for a running workflow.
//
// Polls the Prometheus /metrics endpoint of an obs::MetricsServer (see
// src/obs/export_server.h) and pivots the cwf_actor_* samples into a
// refreshing table: cumulative firings plus poll-to-poll firings/s, mean
// firing cost, selectivity (events emitted per event consumed), queue
// high-water mark of the current run, backpressure blocked time and
// deferrals. When the serving process runs a net::IngestServer, the
// cwf_ingest_* samples add an INGEST section with per-channel tuples/s.
// Rates use this client's steady clock between polls. The tool reads only
// the exposition text, so it does not link the engine.
//
// Usage:
//   cwf_top --port N [--host 127.0.0.1] [--interval-ms 1000] [--once]
//           [--profile]
//
// --once fetches a single sample, prints the table without screen control
// sequences, and exits (CI / scripting mode). --profile additionally polls
// the /profile endpoint and appends a per-actor host-time table (self-time
// per phase plus share of wall) — rows are empty unless the server process
// runs with profiling enabled.

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

struct CliOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  int interval_ms = 1000;
  bool once = false;
  bool profile = false;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port N [--host HOST] [--interval-ms MS] [--once] "
               "[--profile]\n",
               argv0);
  return 2;
}

/// One /metrics poll. Samples with at most one label are kept, keyed by
/// metric name and then label value ("" when unlabelled); multi-label
/// samples (histogram buckets) are not read by this tool and skipped.
struct Sample {
  int64_t ts_us = 0;  ///< client steady clock at the fetch (rate base)
  std::map<std::string, std::map<std::string, double>> values;

  /// Every sample of `name` by label value (empty when absent).
  const std::map<std::string, double>& Family(const std::string& name) const {
    static const std::map<std::string, double> kEmpty;
    auto it = values.find(name);
    return it == values.end() ? kEmpty : it->second;
  }

  double Get(const std::string& name, const std::string& label = "") const {
    const std::map<std::string, double>& family = Family(name);
    auto it = family.find(label);
    return it == family.end() ? 0.0 : it->second;
  }
};

/// Issues one HTTP/1.0 GET and returns the response body, or false on any
/// connection/protocol error.
bool HttpGet(const std::string& host, int port, const std::string& path,
             std::string* body, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    // Fall back to name resolution for non-dotted hosts.
    hostent* he = ::gethostbyname(host.c_str());
    if (he == nullptr || he->h_addr_list[0] == nullptr) {
      ::close(fd);
      *error = "cannot resolve host '" + host + "'";
      return false;
    }
    std::memcpy(&addr.sin_addr, he->h_addr_list[0], sizeof(addr.sin_addr));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    *error = std::strerror(errno);
    ::close(fd);
    return false;
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::write(fd, request.data() + off, request.size() - off);
    if (n <= 0) {
      *error = "write failed";
      ::close(fd);
      return false;
    }
    off += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      *error = std::strerror(errno);
      ::close(fd);
      return false;
    }
    if (n == 0) {
      break;
    }
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    *error = "malformed HTTP response";
    return false;
  }
  if (response.find("200") == std::string::npos ||
      response.find("200") > response.find("\r\n")) {
    *error = "non-200 response: " + response.substr(0, response.find("\r\n"));
    return false;
  }
  *body = response.substr(header_end + 4);
  return true;
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  for (;;) {
    const size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

/// Parses one label value after its opening quote, undoing the exposition
/// format's escapes (\\, \" and \n). Returns the index past the closing
/// quote, or npos when the value is unterminated.
size_t ParseLabelValue(const std::string& line, size_t pos, std::string* out) {
  for (; pos < line.size(); ++pos) {
    const char c = line[pos];
    if (c == '"') {
      return pos + 1;
    }
    if (c == '\\' && pos + 1 < line.size()) {
      const char next = line[++pos];
      out->push_back(next == 'n' ? '\n' : next);
    } else {
      out->push_back(c);
    }
  }
  return std::string::npos;
}

/// Parses a Prometheus text exposition (format 0.0.4) body.
bool ParseMetrics(const std::string& body, Sample* sample,
                  std::string* error) {
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string::npos) {
      *error = "bad sample: " + line;
      return false;
    }
    const std::string name = line.substr(0, name_end);
    size_t pos = name_end;
    std::vector<std::string> label_values;
    if (line[pos] == '{') {
      ++pos;
      while (pos < line.size() && line[pos] != '}') {
        const size_t eq = line.find("=\"", pos);
        if (eq == std::string::npos) {
          *error = "bad label set: " + line;
          return false;
        }
        std::string value;
        pos = ParseLabelValue(line, eq + 2, &value);
        if (pos == std::string::npos) {
          *error = "unterminated label value: " + line;
          return false;
        }
        label_values.push_back(std::move(value));
        if (pos < line.size() && line[pos] == ',') {
          ++pos;
        }
      }
      ++pos;  // '}'
    }
    if (label_values.size() > 1) {
      continue;
    }
    sample->values[name][label_values.empty() ? "" : label_values[0]] =
        std::strtod(line.c_str() + std::min(pos, line.size()), nullptr);
  }
  return true;
}

/// Renders one refresh of the table. `prev` may be empty (first poll);
/// rates then read as 0.
std::string RenderTable(const Sample& sample, const Sample& prev) {
  const double dt_s =
      prev.ts_us > 0 ? (sample.ts_us - prev.ts_us) / 1e6 : 0.0;
  auto rate = [&](const std::string& name, const std::string& label) {
    return dt_s > 0 ? (sample.Get(name, label) - prev.Get(name, label)) / dt_s
                    : 0.0;
  };
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-26s %10s %10s %10s %6s %9s %11s %10s\n", "ACTOR",
                "FIRINGS", "FIRINGS/S", "COST_US", "SEL", "QUEUE_HWM",
                "BLOCKED_MS", "DEFERRALS");
  out << line;
  for (const auto& [actor, firings] :
       sample.Family("cwf_actor_firings_total")) {
    const double cost_count = sample.Get("cwf_actor_cost_us_count", actor);
    const double cost_mean =
        cost_count > 0 ? sample.Get("cwf_actor_cost_us_sum", actor) / cost_count
                       : 0.0;
    const double consumed =
        sample.Get("cwf_actor_events_consumed_total", actor);
    const double selectivity =
        consumed > 0
            ? sample.Get("cwf_actor_events_emitted_total", actor) / consumed
            : 0.0;
    // Backpressure blocked time is tracked per channel; attribute every
    // "Actor.port" channel of this actor.
    double blocked_us = 0;
    const std::string prefix = actor + ".";
    for (const auto& [port, us] :
         sample.Family("cwf_receiver_blocked_us_total")) {
      if (port.rfind(prefix, 0) == 0) {
        blocked_us += us;
      }
    }
    std::snprintf(line, sizeof(line),
                  "%-26s %10.0f %10.1f %10.1f %6.2f %9.0f %11.1f %10.0f\n",
                  actor.c_str(), firings,
                  rate("cwf_actor_firings_total", actor), cost_mean,
                  selectivity, sample.Get("cwf_actor_queue_hwm", actor),
                  blocked_us / 1000.0,
                  sample.Get("cwf_backpressure_deferrals_total", actor));
    out << line;
  }
  // The per-channel tuple counter only exists once an IngestServer resolved
  // its instruments, so a workflow without network ingest shows no section.
  std::map<std::string, double> channels =
      sample.Family("cwf_ingest_tuples_total");
  channels.erase("");
  if (!channels.empty()) {
    std::snprintf(
        line, sizeof(line),
        "\nINGEST  conns=%.0f (paused %.0f, accepted %.0f, rejected %.0f)  "
        "pauses=%.0f  errors=%.0f\n",
        sample.Get("cwf_ingest_connections"),
        sample.Get("cwf_ingest_backpressure_paused"),
        sample.Get("cwf_ingest_accepted_total"),
        sample.Get("cwf_ingest_rejected_total"),
        sample.Get("cwf_ingest_backpressure_pauses_total"),
        sample.Get("cwf_ingest_parse_errors_total") +
            sample.Get("cwf_ingest_schema_rejects_total") +
            sample.Get("cwf_ingest_frame_errors_total"));
    out << line;
    std::snprintf(line, sizeof(line), "%-26s %14s %14s\n", "CHANNEL",
                  "TUPLES", "TUPLES/S");
    out << line;
    for (const auto& [channel, tuples] : channels) {
      std::snprintf(line, sizeof(line), "%-26s %14.0f %14.1f\n",
                    channel.c_str(), tuples,
                    rate("cwf_ingest_tuples_total", channel));
      out << line;
    }
  }
  return out.str();
}

/// Per-actor host-time decomposition pivoted from the /profile TSV: the
/// self-time of the firing phases plus everything else, and the actor's
/// total share of profiled wall time.
struct ProfileRow {
  double prefire_ms = 0;
  double fire_ms = 0;
  double postfire_ms = 0;
  double put_ms = 0;
  double get_ms = 0;
  double blocked_ms = 0;
  double other_ms = 0;
  double total_ms = 0;
};

/// Parses the decomposition section of the /profile body (5-field TSV rows
/// up to the first blank line; the critical-path section after it uses a
/// different, human-oriented format).
bool ParseProfile(const std::string& body,
                  std::map<std::string, ProfileRow>* rows, double* wall_us,
                  std::string* error) {
  std::istringstream in(body);
  std::string line;
  *wall_us = 0;
  bool saw_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) {
      break;  // end of the decomposition TSV
    }
    if (line.rfind("# wall_us ", 0) == 0) {
      *wall_us = std::strtod(line.c_str() + 10, nullptr);
      continue;
    }
    if (line[0] == '#') {
      continue;
    }
    if (line.rfind("actor\t", 0) == 0) {
      saw_header = true;
      continue;
    }
    const std::vector<std::string> f = SplitTabs(line);
    if (f.size() != 5) {
      *error = "bad /profile row (want 5 fields): " + line;
      return false;
    }
    const double ms = std::strtod(f[2].c_str(), nullptr) / 1000.0;
    ProfileRow& row = (*rows)[f[0]];
    if (f[1] == "prefire") {
      row.prefire_ms += ms;
    } else if (f[1] == "fire") {
      row.fire_ms += ms;
    } else if (f[1] == "postfire") {
      row.postfire_ms += ms;
    } else if (f[1] == "receiver_put") {
      row.put_ms += ms;
    } else if (f[1] == "receiver_get") {
      row.get_ms += ms;
    } else if (f[1] == "blocked") {
      row.blocked_ms += ms;
    } else {
      row.other_ms += ms;
    }
    row.total_ms += ms;
  }
  if (!saw_header) {
    *error = "missing /profile TSV header";
    return false;
  }
  return true;
}

std::string RenderProfileTable(const std::map<std::string, ProfileRow>& rows,
                               double wall_us) {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-26s %9s %9s %9s %8s %8s %9s %8s %8s\n", "ACTOR(HOST)",
                "PRE_MS", "FIRE_MS", "POST_MS", "PUT_MS", "GET_MS",
                "BLOCK_MS", "OTHER_MS", "PCT_WALL");
  out << line;
  for (const auto& [actor, row] : rows) {
    const double pct =
        wall_us > 0 ? 100.0 * row.total_ms * 1000.0 / wall_us : 0.0;
    std::snprintf(line, sizeof(line),
                  "%-26s %9.1f %9.1f %9.1f %8.1f %8.1f %9.1f %8.1f %8.1f\n",
                  actor.c_str(), row.prefire_ms, row.fire_ms, row.postfire_ms,
                  row.put_ms, row.get_ms, row.blocked_ms, row.other_ms, pct);
    out << line;
  }
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host" && i + 1 < argc) {
      options.host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      options.port = std::atoi(argv[++i]);
    } else if (arg == "--interval-ms" && i + 1 < argc) {
      options.interval_ms = std::atoi(argv[++i]);
    } else if (arg == "--once") {
      options.once = true;
    } else if (arg == "--profile") {
      options.profile = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (options.port <= 0 || options.port > 65535 || options.interval_ms <= 0) {
    return Usage(argv[0]);
  }

  Sample prev;
  for (;;) {
    std::string body;
    std::string error;
    if (!HttpGet(options.host, options.port, "/metrics", &body, &error)) {
      std::fprintf(stderr, "cwf_top: fetch failed: %s\n", error.c_str());
      return 1;
    }
    Sample sample;
    sample.ts_us = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now().time_since_epoch())
                       .count();
    if (!ParseMetrics(body, &sample, &error)) {
      std::fprintf(stderr, "cwf_top: bad /metrics payload: %s\n",
                   error.c_str());
      return 1;
    }
    std::string table = RenderTable(sample, prev);
    if (options.profile) {
      std::string profile_body;
      if (!HttpGet(options.host, options.port, "/profile", &profile_body,
                   &error)) {
        std::fprintf(stderr, "cwf_top: /profile fetch failed: %s\n",
                     error.c_str());
        return 1;
      }
      std::map<std::string, ProfileRow> profile_rows;
      double wall_us = 0;
      if (!ParseProfile(profile_body, &profile_rows, &wall_us, &error)) {
        std::fprintf(stderr, "cwf_top: bad /profile payload: %s\n",
                     error.c_str());
        return 1;
      }
      table += "\n" + RenderProfileTable(profile_rows, wall_us);
    }
    if (options.once) {
      std::fputs(table.c_str(), stdout);
      return 0;
    }
    // Clear screen + home, then the table and a status line.
    std::fputs("\x1b[2J\x1b[H", stdout);
    std::fputs(table.c_str(), stdout);
    std::printf("\n[%s:%d  every %dms  ctrl-c to quit]\n",
                options.host.c_str(), options.port, options.interval_ms);
    std::fflush(stdout);
    prev = sample;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options.interval_ms));
  }
}
