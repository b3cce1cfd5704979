#include "obs/profile.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <unordered_map>

#include "obs/trace_buffer.h"

namespace cwf::obs {
namespace {

std::atomic<bool> g_profiling_enabled{false};

constexpr const char* kPhaseNames[kProfilePhaseCount] = {
    "scheduler_dispatch", "receiver_put", "receiver_get", "prefire",
    "fire",               "postfire",     "wave_open",    "wave_close",
    "allocation",         "blocked",      "serialization",
};

constexpr const char* kWallCounterName = "cwf_profile_wall_ns_total";

std::string PhaseNsMetricName(ProfilePhase phase) {
  return std::string("cwf_profile_") + ProfilePhaseName(phase) + "_ns_total";
}

std::string PhaseSamplesMetricName(ProfilePhase phase) {
  return std::string("cwf_profile_") + ProfilePhaseName(phase) +
         "_samples_total";
}

std::string FormatPct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", fraction * 100.0);
  return buf;
}

// ---------------------------------------------------------------------------
// Thread-local measurement state: a strict-nesting frame stack (self-time
// accounting) plus a bounded sample ring drained into the registry counters
// when full and at thread exit. Everything here is single-thread private;
// the only cross-thread operations are the relaxed Counter::Add calls in
// Flush.
// ---------------------------------------------------------------------------

constexpr size_t kMaxFrameDepth = 32;
constexpr size_t kSampleRingSize = 256;

struct Frame {
  const ProfileSite* site = nullptr;
  int64_t start_ns = 0;
  int64_t child_ns = 0;  ///< summed duration of directly nested scopes
};

struct Sample {
  const ProfileSite* site = nullptr;
  int64_t self_ns = 0;
};

struct ThreadState {
  Frame frames[kMaxFrameDepth];
  size_t depth = 0;
  Sample ring[kSampleRingSize];
  size_t ring_size = 0;

  ~ThreadState() { Flush(); }

  void Flush() {
    for (size_t i = 0; i < ring_size; ++i) {
      const Sample& s = ring[i];
      s.site->self_ns->Add(static_cast<uint64_t>(s.self_ns));
      s.site->samples->Add(1);
    }
    ring_size = 0;
  }

  void Push(const ProfileSite* site, int64_t self_ns) {
    if (ring_size == kSampleRingSize) {
      Flush();
    }
    ring[ring_size].site = site;
    ring[ring_size].self_ns = self_ns;
    ++ring_size;
  }
};

ThreadState& State() {
  thread_local ThreadState state;
  return state;
}

}  // namespace

// ---------------------------------------------------------------------------
// Taxonomy + toggles
// ---------------------------------------------------------------------------

const char* ProfilePhaseName(ProfilePhase phase) {
  const size_t i = static_cast<size_t>(phase);
  return i < kProfilePhaseCount ? kPhaseNames[i] : "unknown";
}

ProfilePhase ProfilePhaseAt(size_t index) {
  return static_cast<ProfilePhase>(index);
}

bool ProfilingEnabled() {
  return g_profiling_enabled.load(std::memory_order_relaxed);
}

void SetProfilingEnabled(bool enabled) {
  g_profiling_enabled.store(enabled, std::memory_order_relaxed);
}

int64_t ProfileClockNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------------

Profiler& Profiler::Global() {
  static Profiler profiler;
  return profiler;
}

const ProfileSite* Profiler::Site(const std::string& actor,
                                  ProfilePhase phase) {
  ScopedLock lock(mutex_);
  auto key = std::make_pair(actor, static_cast<uint8_t>(phase));
  auto it = sites_.find(key);
  if (it != sites_.end()) {
    return &it->second;
  }
  MetricsRegistry& registry = MetricsRegistry::Global();
  ProfileSite site;
  site.self_ns = registry.GetCounter(PhaseNsMetricName(phase), "actor", actor);
  site.samples =
      registry.GetCounter(PhaseSamplesMetricName(phase), "actor", actor);
  registry.SetHelp(PhaseNsMetricName(phase),
                   std::string("Host self-time (ns) spent in the ") +
                       ProfilePhaseName(phase) + " phase, per actor.");
  registry.SetHelp(PhaseSamplesMetricName(phase),
                   std::string("Profiled scope count for the ") +
                       ProfilePhaseName(phase) + " phase, per actor.");
  auto [inserted, ok] = sites_.emplace(std::move(key), site);
  static_cast<void>(ok);
  return &inserted->second;
}

void Profiler::FlushCurrentThread() { State().Flush(); }

void Profiler::RecordExternal(const ProfileSite* site, int64_t ns) {
  if (site == nullptr || ns <= 0 || !ProfilingEnabled()) {
    return;
  }
  State().Push(site, ns);
}

void Profiler::AddWallNanos(int64_t ns) {
  if (ns <= 0) {
    return;
  }
  static Counter* wall = [] {
    MetricsRegistry& registry = MetricsRegistry::Global();
    registry.SetHelp(kWallCounterName,
                     "Host wall time (ns) covered by profiled director runs.");
    return registry.GetCounter(kWallCounterName);
  }();
  wall->Add(static_cast<uint64_t>(ns));
}

// ---------------------------------------------------------------------------
// Scopes
// ---------------------------------------------------------------------------

ScopedProfilePhase::ScopedProfilePhase(const ProfileSite* site)
    : active_(false) {
  if (site == nullptr || !ProfilingEnabled()) {
    return;
  }
  ThreadState& state = State();
  if (state.depth == kMaxFrameDepth) {
    return;
  }
  Frame& frame = state.frames[state.depth++];
  frame.site = site;
  frame.child_ns = 0;
  frame.start_ns = ProfileClockNanos();
  active_ = true;
}

ScopedProfilePhase::~ScopedProfilePhase() {
  if (!active_) {
    return;
  }
  ThreadState& state = State();
  Frame& frame = state.frames[--state.depth];
  const int64_t duration = ProfileClockNanos() - frame.start_ns;
  const int64_t self = std::max<int64_t>(0, duration - frame.child_ns);
  if (state.depth > 0) {
    state.frames[state.depth - 1].child_ns += duration;
  }
  state.Push(frame.site, self);
}

ScopedProfileWall::ScopedProfileWall()
    : start_ns_(ProfilingEnabled() ? ProfileClockNanos() : -1) {}

ScopedProfileWall::~ScopedProfileWall() {
  if (start_ns_ < 0) {
    return;
  }
  Profiler::AddWallNanos(ProfileClockNanos() - start_ns_);
  Profiler::FlushCurrentThread();
}

// ---------------------------------------------------------------------------
// Snapshot + rendering
// ---------------------------------------------------------------------------

double ProfileSnapshot::CoverageFraction() const {
  if (wall_ns == 0) {
    return 0;
  }
  uint64_t covered = 0;
  for (const ProfileEntry& e : entries) {
    covered += e.self_ns;
  }
  return static_cast<double>(covered) / static_cast<double>(wall_ns);
}

std::map<std::string, double> ProfileSnapshot::PhaseTotalsUs() const {
  std::map<std::string, double> totals;
  for (const ProfileEntry& e : entries) {
    totals[ProfilePhaseName(e.phase)] += static_cast<double>(e.self_ns) / 1e3;
  }
  return totals;
}

ProfileSnapshot SnapshotProfile(MetricsRegistry& registry) {
  Profiler::FlushCurrentThread();
  ProfileSnapshot snapshot;
  snapshot.wall_ns = registry.GetCounter(kWallCounterName)->Value();
  for (size_t i = 0; i < kProfilePhaseCount; ++i) {
    const ProfilePhase phase = ProfilePhaseAt(i);
    const std::string ns_name = PhaseNsMetricName(phase);
    const std::string samples_name = PhaseSamplesMetricName(phase);
    for (const std::string& actor : registry.LabelValues(ns_name)) {
      ProfileEntry entry;
      entry.actor = actor;
      entry.phase = phase;
      entry.self_ns = registry.GetCounter(ns_name, "actor", actor)->Value();
      entry.samples =
          registry.GetCounter(samples_name, "actor", actor)->Value();
      if (entry.self_ns == 0 && entry.samples == 0) {
        continue;
      }
      snapshot.entries.push_back(std::move(entry));
    }
  }
  std::sort(snapshot.entries.begin(), snapshot.entries.end(),
            [](const ProfileEntry& a, const ProfileEntry& b) {
              if (a.self_ns != b.self_ns) return a.self_ns > b.self_ns;
              if (a.actor != b.actor) return a.actor < b.actor;
              return a.phase < b.phase;
            });
  return snapshot;
}

std::string RenderProfileText(const ProfileSnapshot& snapshot) {
  std::ostringstream out;
  out << "# wall_us " << snapshot.wall_ns / 1000 << "\n";
  out << "# coverage_pct " << FormatPct(snapshot.CoverageFraction()) << "\n";
  out << "actor\tphase\tself_us\tsamples\tpct_wall\n";
  for (const ProfileEntry& e : snapshot.entries) {
    const double pct_wall =
        snapshot.wall_ns == 0
            ? 0
            : static_cast<double>(e.self_ns) /
                  static_cast<double>(snapshot.wall_ns);
    out << e.actor << '\t' << ProfilePhaseName(e.phase) << '\t'
        << e.self_ns / 1000 << '\t' << e.samples << '\t'
        << FormatPct(pct_wall) << "\n";
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Critical-path attribution
// ---------------------------------------------------------------------------

namespace {

/// Per-wave reconstruction scratch: spans grouped while walking the ring.
struct WaveScratch {
  bool born_seen = false;
  bool closed = false;
  int64_t latency_us = 0;
  uint32_t terminal_tid = 0;  ///< processing track of the last firing
  /// (tid, queueing?) → summed span µs
  std::map<std::pair<uint32_t, bool>, int64_t> spans;
  /// open kFiringBegin timestamps per processing track (LIFO per tid)
  std::map<uint32_t, std::vector<int64_t>> open_firings;
};

struct GroupScratch {
  uint64_t waves = 0;
  int64_t total_latency_us = 0;
  std::map<std::pair<std::string, bool>, int64_t> contributors;
};

}  // namespace

CriticalPathReport ComputeCriticalPaths(const WaveTracer& tracer,
                                        size_t top_n) {
  const std::vector<TraceEvent> events = tracer.buffer().SnapshotEvents();
  const std::vector<std::string> tracks = tracer.TrackNames();
  const auto track_name = [&tracks](uint32_t tid) -> std::string {
    if (tid < 10) {
      return "<wave>";
    }
    const size_t index = (tid - 10) / 2;
    if (index < tracks.size()) {
      return tracks[index];
    }
    return "<track " + std::to_string(tid) + ">";
  };

  // Pass 1: reconstruct every wave present in the ring. Events are oldest
  // first, so a wave whose kWaveBorn marker is absent lost its head to ring
  // wraparound — it must not be attributed from a partial chain.
  std::unordered_map<uint64_t, WaveScratch> waves;
  for (const TraceEvent& event : events) {
    WaveScratch& wave = waves[event.wave_root];
    switch (event.kind) {
      case TraceEvent::Kind::kWaveBorn:
        wave.born_seen = true;
        break;
      case TraceEvent::Kind::kWaveSpan:
        wave.closed = true;
        wave.latency_us = event.dur;
        break;
      case TraceEvent::Kind::kFiringBegin:
        wave.open_firings[event.tid].push_back(event.ts);
        break;
      case TraceEvent::Kind::kFiringEnd: {
        auto it = wave.open_firings.find(event.tid);
        if (it == wave.open_firings.end() || it->second.empty()) {
          // The matching begin predates the ring: partial chain.
          wave.born_seen = false;
          break;
        }
        const int64_t begin_ts = it->second.back();
        it->second.pop_back();
        wave.spans[{event.tid, false}] += event.ts - begin_ts;
        wave.terminal_tid = event.tid;
        break;
      }
      case TraceEvent::Kind::kQueued:
        wave.spans[{event.tid, true}] += event.dur;
        break;
      case TraceEvent::Kind::kWaveClosed:
      case TraceEvent::Kind::kInstant:
        break;
    }
  }

  // Pass 2: aggregate attributable waves per terminal actor.
  CriticalPathReport report;
  std::map<std::string, GroupScratch> groups;
  for (const auto& [root, wave] : waves) {
    static_cast<void>(root);
    if (!wave.closed) {
      continue;  // still in flight; neither analyzed nor truncated
    }
    if (!wave.born_seen) {
      ++report.truncated_waves;
      continue;
    }
    ++report.waves_analyzed;
    const std::string terminal = wave.terminal_tid == 0
                                     ? "<no-firing>"
                                     : track_name(wave.terminal_tid);
    GroupScratch& group = groups[terminal];
    ++group.waves;
    group.total_latency_us += wave.latency_us;
    for (const auto& [span_key, us] : wave.spans) {
      const auto& [tid, queueing] = span_key;
      // Queueing spans live on tid 11+2i; resolve to the consuming actor.
      const std::string actor = track_name(queueing ? tid - 1 : tid);
      group.contributors[{actor, queueing}] += us;
    }
  }

  for (auto& [terminal, scratch] : groups) {
    CriticalPathGroup group;
    group.terminal_actor = terminal;
    group.waves = scratch.waves;
    group.total_latency_us = scratch.total_latency_us;
    std::vector<CriticalPathContributor> ranked;
    ranked.reserve(scratch.contributors.size());
    for (const auto& [key, us] : scratch.contributors) {
      CriticalPathContributor c;
      c.actor = key.first;
      c.queueing = key.second;
      c.total_us = us;
      c.share = scratch.total_latency_us > 0
                    ? static_cast<double>(us) /
                          static_cast<double>(scratch.total_latency_us)
                    : 0;
      ranked.push_back(std::move(c));
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const CriticalPathContributor& a,
                 const CriticalPathContributor& b) {
                if (a.total_us != b.total_us) return a.total_us > b.total_us;
                if (a.actor != b.actor) return a.actor < b.actor;
                return a.queueing < b.queueing;
              });
    if (ranked.size() > top_n) {
      ranked.resize(top_n);
    }
    group.top = std::move(ranked);
    report.groups.push_back(std::move(group));
  }
  std::sort(report.groups.begin(), report.groups.end(),
            [](const CriticalPathGroup& a, const CriticalPathGroup& b) {
              if (a.total_latency_us != b.total_latency_us) {
                return a.total_latency_us > b.total_latency_us;
              }
              return a.terminal_actor < b.terminal_actor;
            });

  // Mirror the truncation count so scrapes see it without recomputing the
  // report; Set (not Add) keeps recomputation idempotent.
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.SetHelp("cwf_trace_truncated_waves",
                   "Closed waves dropped from critical-path attribution "
                   "because trace-ring wraparound evicted their birth span.");
  registry.GetGauge("cwf_trace_truncated_waves")
      ->Set(static_cast<int64_t>(report.truncated_waves));
  return report;
}

std::string RenderCriticalPathText(const CriticalPathReport& report) {
  std::ostringstream out;
  out << "# waves_analyzed " << report.waves_analyzed << "\n";
  out << "# truncated_waves " << report.truncated_waves << "\n";
  for (const CriticalPathGroup& group : report.groups) {
    const int64_t mean_us =
        group.waves > 0
            ? group.total_latency_us / static_cast<int64_t>(group.waves)
            : 0;
    out << "terminal=" << group.terminal_actor << " waves=" << group.waves
        << " mean_latency_us=" << mean_us << "\n";
    size_t rank = 1;
    for (const CriticalPathContributor& c : group.top) {
      out << "  " << rank++ << ". " << c.actor << ' '
          << (c.queueing ? "queueing" : "processing") << ' ' << c.total_us
          << "us " << FormatPct(c.share) << "%\n";
    }
  }
  return out.str();
}

}  // namespace cwf::obs
