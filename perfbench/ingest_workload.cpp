// ingest_door: LRB position reports over TCP into an in-process
// net::IngestServer, deposited into one bounded PushChannel and drained by
// a consumer thread that checks every tuple.
//
// One load thread drives four connections, two speaking the line protocol
// and two binary frames. Each cycle has an open-loop phase (a fixed
// offered rate; every tuple is timed from when it was due, so a stall
// delays the tuples behind it too) and a saturating phase (a fixed count
// sent as fast as the door accepts, its cost taken as the CPU time of the
// door's own threads). A run repeats cycles while time remains and
// reports the door's cost pooled across them.
//
// Tuple identity: the first N reports of the seed's trace have distinct
// (car, time). Send sequence number s carries report s mod N on connection
// s mod 4; with N a multiple of 4 every copy of one report travels the
// same connection, in order, so the k-th arrival of report b is send
// number k*N + b. That gives each popped tuple its due time and lets the
// consumer count missing and extra copies exactly.

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "lrb/generator.h"
#include "net/frame.h"
#include "net/ingest_server.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "stream/push_channel.h"
#include "stream/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kConnections = 4;  // 0,1: line protocol; 2,3: binary frames
constexpr size_t kChannelCapacity = 8192;
/// Largest batch the consumer pops at once; bounds the tuples in flight
/// (channel + one batch), which sets the run's peak RSS.
constexpr size_t kPopBatch = 1024;
/// Offered rate of the open-loop phase, tuples/s over all connections:
/// well inside what the door sustains on four loopback connections.
constexpr double kOpenLoopRate = 40000;
/// Measured tuples of the saturating phase (about 2 s at the door's rate).
constexpr uint64_t kSatTuples = 500000;
/// Distinct reports sent, cycled: the first of the seed's trace (every
/// seed's 600 s trace holds more), so every seed keeps as many expected
/// tuples in memory and peak RSS does not vary with the seed.
constexpr size_t kReports = 64000;
/// Set-up-only door openings before every cycle, for setup_s.
constexpr int kSetupsPerCycle = 10;
/// How often the consumer drains the channel in the saturating phase. A
/// consumer woken by every deposit pops a handful of tuples at a time, and
/// the wake-ups and lock hand-offs that costs are charged to the shard in
/// amounts that vary from cycle to cycle (the shard's cost per tuple fell
/// into two modes 40% apart); polling at a fixed interval leaves the shard
/// only its own work. The channel holds far more than
/// one interval's tuples, so polling never backs the door up.
constexpr auto kSatPollInterval = std::chrono::milliseconds(1);

struct Inputs {
  std::vector<std::string> wire;  ///< bytes of report i on its connection
  /// Report i as the door must deliver it: its body parsed back, which
  /// serializes to exactly the bytes sent, so equal tokens mean equal
  /// fields.
  std::vector<cwf::Token> expected;
  std::unordered_map<uint64_t, uint32_t> index;  ///< (car, time) -> i
};

uint64_t KeyOf(int64_t car, int64_t time) {
  return (static_cast<uint64_t>(car) << 24) ^ static_cast<uint64_t>(time);
}

bool MakeInputs(uint64_t seed, Inputs* in, std::string* error) {
  cwf::lrb::GeneratorOptions g;
  g.seed = seed;
  cwf::Trace trace = cwf::lrb::Generator(g).Generate();
  static_assert(kReports % kConnections == 0);
  if (trace.size() < kReports) {
    *error = "the generated trace holds fewer than " +
             std::to_string(kReports) + " reports";
    return false;
  }
  const size_t n = kReports;
  for (size_t i = 0; i < n; ++i) {
    const cwf::Token& token = trace[i].token;
    const std::string body = cwf::SerializeTokenBody(token);
    auto parsed = cwf::ParseTokenBody(body);
    if (!parsed.ok()) {
      *error = "report does not round-trip: " + body;
      return false;
    }
    if (!parsed.value().is_record()) {
      *error = "report is not a record: " + body;
      return false;
    }
    const cwf::Record& record = *parsed.value().AsRecord();
    const uint64_t key = KeyOf(record.Get("car").value().AsInt(),
                               record.Get("time").value().AsInt());
    if (!in->index.emplace(key, static_cast<uint32_t>(i)).second) {
      *error = "duplicate (car, time) in the generated trace";
      return false;
    }
    if (cwf::SerializeTokenBody(parsed.value()) != body) {
      *error = "report body is not canonical: " + body;
      return false;
    }
    in->expected.push_back(parsed.value());
    in->wire.push_back(i % kConnections < 2
                           ? body + "\n"
                           : cwf::net::EncodeFrame(0, body));
  }
  return true;
}

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::write(fd, data.data() + sent, data.size() - sent);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// A started server with its channel and connected clients.
struct Door {
  Door() = default;
  Door(const Door&) = delete;
  Door& operator=(const Door&) = delete;

  cwf::RealClock clock;
  std::shared_ptr<cwf::PushChannel> channel;
  std::unique_ptr<cwf::net::IngestServer> server;
  int fds[kConnections] = {-1, -1, -1, -1};
  double start_s = 0;  ///< IngestServer::Start
  double setup_s = 0;  ///< Start + every connect

  bool Open(std::string* error) {
    channel = std::make_shared<cwf::PushChannel>();
    channel->SetCapacity(kChannelCapacity);
    channel->SetExpectedSchema(cwf::lrb::PositionReportType(), "reports");
    cwf::net::IngestServer::Options options;
    options.max_connections = kConnections;
    // One event-loop shard: with the load thread and the consumer that
    // leaves a core free, and the shard is the saturating phase's
    // bottleneck, so its CPU time per tuple is the door's cost.
    options.shards = 1;
    server = std::make_unique<cwf::net::IngestServer>(&clock, options);
    server->AddChannel(0, channel, "reports");
    const double t0 = HostSeconds();
    const cwf::Status status = server->Start(0);
    const double t1 = HostSeconds();
    if (!status.ok()) {
      *error = "IngestServer::Start: " + status.ToString();
      return false;
    }
    for (int& fd : fds) {
      fd = Connect(server->port());
      if (fd < 0) {
        *error = "connect failed";
        return false;
      }
    }
    const double t2 = HostSeconds();
    start_s = t1 - t0;
    setup_s = t2 - t0;
    return true;
  }

  void CloseClients() {
    for (int& fd : fds) {
      if (fd >= 0) {
        ::close(fd);
        fd = -1;
      }
    }
  }

  ~Door() {
    CloseClients();
    if (server) {
      server->Stop();
    }
  }
};

/// Everything one cycle measured.
struct Cycle {
  uint64_t sent = 0;
  uint64_t missing = 0;
  uint64_t extra = 0;
  uint64_t mismatched = 0;
  uint64_t door_errors = 0;
  /// Open loop, indexed by send number: due -> popped, due -> written.
  std::vector<int64_t> latency_ns;
  std::vector<int64_t> late_ns;
  double send_blocked_s = 0;
  /// Saturating phase: wall time first send -> last measured pop, and CPU
  /// time of the door's threads in each tenth of the measured tuples.
  double sat_wall_s = 0;
  double sat_door_cpu_s = 0;
  double tenth_door_cpu_s[10] = {};
  uint64_t pops = 0;
  uint64_t popped = 0;
  double consumer_wait_s = 0;
  uint64_t bytes = 0;
  uint64_t pauses = 0;
  double paused_ms = 0;
  uint64_t parse_errors = 0;
  uint64_t frame_errors = 0;
  uint64_t schema_rejects = 0;
  uint64_t staged_dropped = 0;
  uint64_t rejected = 0;
  double cycle_door_cpu_s = 0;  ///< door threads' CPU over the cycle
  double profiled_decode_ns = 0;
  double profiled_deposit_ns = 0;
};

/// CPU seconds of every thread of this process except `excluded`. With
/// the load generator and the consumer excluded, that is the door's
/// threads (acceptor and event-loop shards), whose ids IngestServer does
/// not expose.
double CpuSecondsExcept(const std::vector<pid_t>& excluded) {
  double total = 0;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) {
    return 0;
  }
  while (const dirent* entry = ::readdir(dir)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (tid <= 0 ||
        std::find(excluded.begin(), excluded.end(), tid) != excluded.end()) {
      continue;
    }
    // The per-thread CPU clock of `tid` (Linux: what pthread_getcpuclockid
    // returns for that thread).
    const clockid_t clock = (~static_cast<clockid_t>(tid) << 3) | 6;
    timespec ts{};
    if (::clock_gettime(clock, &ts) == 0) {
      total += static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) * 1e-9;
    }
  }
  ::closedir(dir);
  return total;
}

pid_t CurrentTid() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

bool RunCycle(const Inputs& in, Door* door, double open_s, Cycle* out,
              std::string* error) {
  const size_t n = in.wire.size();
  const uint64_t open_total =
      static_cast<uint64_t>(std::llround(open_s * kOpenLoopRate));
  std::vector<uint32_t> received(n, 0);
  std::vector<double> due(open_total, 0);
  out->latency_ns.assign(open_total, 0);
  out->late_ns.assign(open_total, 0);
  std::atomic<uint64_t> popped{0};
  std::atomic<bool> saturating_phase{false};
  // Threads that are not the door's: this (load) thread and the consumer.
  const pid_t load_tid = CurrentTid();
  std::atomic<pid_t> consumer_tid{0};
  // Door CPU time when the saturating phase starts (k = 0) and when the
  // consumer has popped k tenths of its measured tuples; wall time of the
  // last.
  double cpu_at[11] = {};
  double wall100 = 0;
  const double t0 = HostSeconds() + 0.005;
  for (uint64_t s = 0; s < open_total; ++s) {
    due[s] = t0 + static_cast<double>(s) / kOpenLoopRate;
  }

  std::thread consumer([&] {
    const std::vector<pid_t> not_door = {load_tid, CurrentTid()};
    consumer_tid.store(not_door[1]);
    uint64_t saturating = 0;
    for (;;) {
      const double w0 = HostSeconds();
      if (saturating_phase.load()) {
        std::this_thread::sleep_for(kSatPollInterval);
      } else {
        door->channel->WaitForData();
      }
      out->consumer_wait_s += HostSeconds() - w0;
      std::vector<cwf::TraceEntry> batch =
          door->channel->PopArrived(cwf::Timestamp::Max(), kPopBatch);
      if (batch.empty()) {
        if (door->channel->closed()) {
          return;
        }
        continue;
      }
      const double t = HostSeconds();
      ++out->pops;
      const uint64_t saturating_before = saturating;
      for (const cwf::TraceEntry& e : batch) {
        if (!e.token.is_record()) {
          ++out->mismatched;
          continue;
        }
        const cwf::Record& r = *e.token.AsRecord();
        auto car = r.Get("car");
        auto time = r.Get("time");
        auto it = car.ok() && time.ok() && car.value().is_int() &&
                          time.value().is_int()
                      ? in.index.find(
                            KeyOf(car.value().AsInt(), time.value().AsInt()))
                      : in.index.end();
        // Equal fields: the popped record equals the body sent, parsed.
        if (it == in.index.end() || !(e.token == in.expected[it->second])) {
          ++out->mismatched;
          continue;
        }
        const uint64_t s =
            static_cast<uint64_t>(received[it->second]++) * n + it->second;
        if (s < open_total) {
          out->latency_ns[s] = static_cast<int64_t>((t - due[s]) * 1e9);
        } else {
          ++saturating;
        }
      }
      for (int k = 1; k <= 10; ++k) {
        const uint64_t mark = kSatTuples * k / 10;
        if (saturating_before < mark && saturating >= mark) {
          cpu_at[k] = CpuSecondsExcept(not_door);
          wall100 = HostSeconds();
        }
      }
      popped.fetch_add(batch.size());
    }
  });

  while (consumer_tid.load() == 0) {
    std::this_thread::yield();
  }
  const std::vector<pid_t> not_door = {load_tid, consumer_tid.load()};
  const double cycle_cpu0 = CpuSecondsExcept(not_door);

  // ---- open loop ----
  // The load thread sleeps until each tuple is due; Linux's default 50 us
  // timer slack would make every send up to that late.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  std::string buffers[kConnections];
  bool ok = true;
  uint64_t s = 0;
  while (ok && s < open_total) {
    const double now = HostSeconds();
    if (now < due[s]) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(due[s] - now));
      continue;
    }
    // Everything due by now goes out, one write per connection.
    for (; s < open_total && due[s] <= now; ++s) {
      buffers[s % kConnections] += in.wire[s % n];
      out->late_ns[s] = static_cast<int64_t>((now - due[s]) * 1e9);
    }
    const double w0 = HostSeconds();
    for (int c = 0; c < kConnections && ok; ++c) {
      if (!buffers[c].empty()) {
        ok = SendAll(door->fds[c], buffers[c]);
        buffers[c].clear();
      }
    }
    out->send_blocked_s += HostSeconds() - w0;
  }

  ::prctl(PR_SET_TIMERSLACK, 0UL);  // back to the default

  // ---- saturating: a fixed count, as fast as the door takes it ----
  // The load keeps coming for another quarter of the count, so the
  // measured tuples' last tenth is decoded under the same load as the rest
  // rather than drained from socket buffers after the sender stopped.
  constexpr uint64_t kChunk = 64 * kConnections;
  saturating_phase.store(true);
  const double wall0 = HostSeconds();
  cpu_at[0] = CpuSecondsExcept(not_door);
  const uint64_t sat_until = s + kSatTuples + kSatTuples / 4;
  while (ok && s < sat_until) {
    for (uint64_t i = 0; i < kChunk && s < sat_until; ++i, ++s) {
      buffers[s % kConnections] += in.wire[s % n];
    }
    const double w0 = HostSeconds();
    for (int c = 0; c < kConnections && ok; ++c) {
      ok = SendAll(door->fds[c], buffers[c]);
      buffers[c].clear();
    }
    out->send_blocked_s += HostSeconds() - w0;
  }
  out->sent = s;
  // Wait until the consumer has seen every tuple (or give up after 10 s),
  // then stop the door, which closes the channel and ends the consumer.
  const double give_up = HostSeconds() + 10;
  while (popped.load() < s && HostSeconds() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  out->cycle_door_cpu_s = CpuSecondsExcept(not_door) - cycle_cpu0;
  door->CloseClients();
  door->server->Stop();
  consumer.join();
  if (!ok) {
    *error = "send failed";
    return false;
  }

  // ---- verification ----
  for (size_t b = 0; b < n; ++b) {
    const uint64_t want = s / n + (b < s % n ? 1 : 0);
    const uint64_t got = received[b];
    if (got < want) {
      out->missing += want - got;
    } else {
      out->extra += got - want;
    }
  }
  const cwf::net::IngestServer& server = *door->server;
  out->popped = popped.load();
  out->bytes = server.bytes_received();
  out->pauses = server.backpressure_pauses();
  out->paused_ms = static_cast<double>(server.backpressure_paused_us()) / 1e3;
  out->parse_errors = server.parse_errors();
  out->frame_errors = server.frame_errors() + server.unknown_channel_frames();
  out->schema_rejects = server.schema_rejects();
  out->staged_dropped = server.staged_dropped();
  out->rejected = server.connections_rejected();
  out->door_errors = out->parse_errors + out->frame_errors +
                     out->schema_rejects + out->staged_dropped + out->rejected;

  out->sat_wall_s = wall100 - wall0;
  out->sat_door_cpu_s = cpu_at[10] - cpu_at[0];
  for (int k = 0; k < 10; ++k) {
    out->tenth_door_cpu_s[k] = cpu_at[k + 1] - cpu_at[k];
  }
  return true;
}

double NsPercentileUs(std::vector<int64_t> ns, double p) {
  std::sort(ns.begin(), ns.end());
  return static_cast<double>(ExactPercentile(ns, p)) / 1e3;
}

}  // namespace

WorkloadResult RunIngestWorkload(const Options& options) {
  WorkloadResult result;
  cwf::obs::SetProfilingEnabled(false);
  cwf::obs::SetTracingEnabled(false);
  Inputs in;
  std::string error;
  if (!MakeInputs(options.seed, &in, &error)) {
    result.problems.push_back(error);
    result.attempted = result.failed = 1;
    return result;
  }

  // Set-up-only repetitions for setup_s, spread over the run (a few before
  // every cycle) so the median sees the whole run's conditions.
  std::vector<double> setup_s;
  std::vector<double> start_s;
  auto measure_setups = [&](int count) {
    for (int i = 0; i < count; ++i) {
      Door door;
      if (!door.Open(&error)) {
        return false;
      }
      setup_s.push_back(door.setup_s);
      start_s.push_back(door.start_s);
    }
    return true;
  };

  // A cycle: a 1 s open loop, then kSatTuples as fast as the door takes
  // them. Untraced runs repeat cycles while another fits; traced runs make
  // one untraced cycle (the overhead baseline) and one with the profiler
  // on. Only per-window summaries of a cycle's latencies are kept, so
  // memory does not grow with the number of cycles.
  constexpr double kOpenS = 1;
  const size_t per_window = static_cast<size_t>(kOpenLoopRate);
  const double phi = HighestSupportedPercentile(per_window);
  std::vector<Cycle> cycles;
  std::vector<double> lat_p50;
  std::vector<double> lat_p99;
  std::vector<double> lat_phi;
  std::vector<double> late_p99;
  const double start = HostSeconds();
  for (;;) {
    const bool traced = options.trace && cycles.size() == 1;
    Door door;
    if (!measure_setups(kSetupsPerCycle) || !door.Open(&error)) {
      result.problems.push_back(error);
      result.attempted = result.failed = 1;
      return result;
    }
    setup_s.push_back(door.setup_s);
    start_s.push_back(door.start_s);
    if (traced) {
      cwf::obs::MetricsRegistry::Global().Reset();
      cwf::obs::SetProfilingEnabled(true);
    }
    Cycle cycle;
    const bool ran = RunCycle(in, &door, kOpenS, &cycle, &error);
    if (traced) {
      cwf::obs::SetProfilingEnabled(false);
      const cwf::obs::ProfileSnapshot snap =
          cwf::obs::SnapshotProfile(cwf::obs::MetricsRegistry::Global());
      for (const auto& e : snap.entries) {
        if (e.actor != "<ingest>") {
          continue;
        }
        if (e.phase == cwf::obs::ProfilePhase::kSerialization) {
          cycle.profiled_decode_ns += static_cast<double>(e.self_ns);
        } else if (e.phase == cwf::obs::ProfilePhase::kReceiverPut) {
          cycle.profiled_deposit_ns += static_cast<double>(e.self_ns);
        }
      }
    }
    if (!ran) {
      result.problems.push_back(error);
      result.attempted += 1;
      result.failed += 1;
      return result;
    }
    result.attempted += cycle.sent + kConnections;
    result.failed += cycle.missing + cycle.extra + cycle.mismatched +
                     cycle.door_errors;
    if (cycle.missing + cycle.extra + cycle.mismatched + cycle.door_errors >
        0) {
      result.problems.push_back(
          "cycle " + std::to_string(cycles.size()) + ": " +
          std::to_string(cycle.missing) + " missing, " +
          std::to_string(cycle.extra) + " extra, " +
          std::to_string(cycle.mismatched) + " mismatched, " +
          std::to_string(cycle.door_errors) + " door errors");
    }
    // Open-loop percentiles per one-second window of due times; the run
    // reports medians across every window, so a scheduling hiccup on the
    // shared host moves one window's p99, not the run's figure.
    for (size_t w = 0; w + per_window <= cycle.latency_ns.size();
         w += per_window) {
      std::vector<int64_t> lat(cycle.latency_ns.begin() + w,
                               cycle.latency_ns.begin() + w + per_window);
      std::vector<int64_t> late(cycle.late_ns.begin() + w,
                                cycle.late_ns.begin() + w + per_window);
      lat_p50.push_back(NsPercentileUs(lat, 50));
      lat_p99.push_back(NsPercentileUs(lat, 99));
      lat_phi.push_back(NsPercentileUs(lat, phi));
      late_p99.push_back(NsPercentileUs(late, 99));
    }
    cycle.latency_ns = {};
    cycle.late_ns = {};
    cycles.push_back(std::move(cycle));
    if (options.trace) {
      if (cycles.size() == 2) {
        break;
      }
      continue;
    }
    const double elapsed = HostSeconds() - start;
    if (elapsed + elapsed / static_cast<double>(cycles.size()) >
        options.seconds) {
      break;
    }
  }

  std::vector<double> tuples_per_s;
  const double sat = static_cast<double>(kSatTuples);
  // Door cost per tuple over every saturating phase, and over each one's
  // last tenth, pooled across cycles: a cycle's cost swings by about a
  // sixth with the host's load, and a mean over all of them settles where
  // a median of a few last tenths jumps between cycles. The first of
  // several untraced cycles is a warm-up and is left out.
  const size_t first = options.trace || cycles.size() < 3 ? 0 : 1;
  double sat_cpu_s = 0;
  double tail_cpu_s = 0;
  for (size_t i = first; i < cycles.size(); ++i) {
    sat_cpu_s += cycles[i].sat_door_cpu_s;
    tail_cpu_s += cycles[i].tenth_door_cpu_s[9];
  }
  const double measured = static_cast<double>(cycles.size() - first);
  const double host_mean_us = sat_cpu_s * 1e6 / (sat * measured);
  const double tail_mean_us = tail_cpu_s * 1e6 / (sat / 10 * measured);
  for (const Cycle& c : cycles) {
    tuples_per_s.push_back(sat / c.sat_wall_s);
  }
  const double late = Median(late_p99);
  const double p50 = Median(lat_p50);
  const double p99 = Median(lat_p99);
  // The generator's own lateness must stay below the latency the door
  // adds on top of it, or the latency figure measures the generator.
  const bool late_flag = late > p99 - late;
  std::printf("# workload ingest_door seed %llu: %zu distinct reports, "
              "%zu cycles, open loop %.0f tuples/s, saturating %llu tuples\n",
              static_cast<unsigned long long>(options.seed), in.wire.size(),
              cycles.size(), kOpenLoopRate,
              static_cast<unsigned long long>(kSatTuples));
  PrintInfo("ingest_tuples_per_s", Median(tuples_per_s), "1/s",
            tuples_per_s.size());
  PrintInfo("setup_s", Median(setup_s), "s", setup_s.size());
  PrintInfo("net.start_s", Median(start_s), "s", start_s.size());
  std::printf("# open-loop latency: medians over %zu one-second windows of "
              "%zu tuples each; p%.1f is the highest percentile with ten "
              "samples beyond it in a window\n",
              lat_p50.size(), per_window, phi);
  PrintInfo("ingest_lat_p50_us", p50, "us", lat_p50.size() * per_window);
  PrintInfo("ingest_lat_p99_us", p99, "us", lat_p99.size() * per_window);
  PrintInfo("ingest_lat_phi_us", Median(lat_phi), "us",
            lat_phi.size() * per_window);
  PrintInfo("loadgen.late_p99_us", late, "us", late_p99.size() * per_window);
  PrintInfo("host_us_per_report (door CPU)", host_mean_us, "us",
            static_cast<uint64_t>(sat * measured));
  for (size_t i = 0; i < cycles.size(); ++i) {
    std::printf("#   cycle %zu%s: door CPU %.3f us/tuple, last tenth %.3f, "
                "wall %.3f us/tuple\n",
                i, i < first ? " (warm-up)" : "",
                cycles[i].sat_door_cpu_s * 1e6 / sat,
                cycles[i].tenth_door_cpu_s[9] * 1e6 / (sat / 10),
                1e6 / tuples_per_s[i]);
  }
  PrintInfo("tail_host_us_per_report (door CPU)", tail_mean_us, "us",
            static_cast<uint64_t>(sat / 10 * measured));
  if (late_flag) {
    std::printf("# WARNING: generator lateness p99 %.1f us exceeds the "
                "latency the door adds (%.1f us); latency is not trustworthy\n",
                late, p99 - late);
  }

  if (!options.trace) {
    result.metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"host_us_per_report", host_mean_us, "us"},
        {"tail_host_us_per_report", tail_mean_us, "us"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    return result;
  }

  const Cycle& base = cycles[0];
  const Cycle& c = cycles[1];
  const double delivered = static_cast<double>(c.popped);
  std::vector<Metric>& m = result.metrics;
  m.push_back({"net.ingest_tuples_per_s", sat / c.sat_wall_s, "1/s"});
  m.push_back({"net.ingest_lat_p50_us", p50, "us"});
  m.push_back({"net.ingest_lat_p99_us", p99, "us"});
  m.push_back({"net.start_s", Median(start_s), "s"});
  m.push_back({"net.decode_us_per_tuple", c.profiled_decode_ns / 1e3 / delivered,
               "us"});
  m.push_back({"stream.deposit_us_per_tuple",
               c.profiled_deposit_ns / 1e3 / delivered, "us"});
  m.push_back({"net.bytes_per_tuple", static_cast<double>(c.bytes) / delivered,
               "B"});
  m.push_back({"net.backpressure_pauses", static_cast<double>(c.pauses),
               "count"});
  m.push_back({"net.paused_ms", c.paused_ms, "ms"});
  m.push_back({"net.parse_errors", static_cast<double>(c.parse_errors), "count"});
  m.push_back({"net.frame_errors", static_cast<double>(c.frame_errors), "count"});
  m.push_back({"net.schema_rejects", static_cast<double>(c.schema_rejects),
               "count"});
  m.push_back({"net.staged_dropped", static_cast<double>(c.staged_dropped),
               "count"});
  m.push_back({"net.connections_rejected", static_cast<double>(c.rejected),
               "count"});
  m.push_back({"stream.pop_batch_mean",
               c.pops > 0 ? delivered / static_cast<double>(c.pops) : 0,
               "ratio"});
  m.push_back({"stream.consumer_wait_ms", c.consumer_wait_s * 1e3, "ms"});
  m.push_back({"loadgen.late_p99_us", late, "us"});
  m.push_back({"loadgen.send_blocked_ms", c.send_blocked_s * 1e3, "ms"});
  m.push_back({"loadgen.late_exceeds_latency", late_flag ? 1.0 : 0.0, "count"});
  m.push_back({"obs.trace_overhead_pct",
               (c.sat_door_cpu_s - base.sat_door_cpu_s) / base.sat_door_cpu_s *
                   100,
               "%"});
  // The share of the door threads' CPU time the profiler attributes.
  const double door_ns = c.profiled_decode_ns + c.profiled_deposit_ns;
  m.push_back({"obs.profile_coverage_pct",
               door_ns / (c.cycle_door_cpu_s * 1e9) * 100, "%"});
  return result;
}

}  // namespace perfbench
