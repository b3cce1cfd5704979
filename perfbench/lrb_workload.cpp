// lrb_ramp and lrb_overload: the Linear Road workflow under SCWF + QBS on
// the virtual clock, driven through the same public calls as
// lrb::RunLRBExperiment, with host time noted from outside.
//
// A run repeats whole experiments (generate, build, initialize, run,
// wrap up) on the seed's inputs while time remains and reports medians
// across them. Host time inside Run is split by virtual time: TenthClock
// notes the host clock whenever virtual time crosses a tenth of the
// arrival span, so Run is never interrupted or split.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>

#include "common.h"
#include "core/composite_actor.h"
#include "db/database.h"
#include "directors/scwf_director.h"
#include "lrb/harness.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/telemetry.h"
#include "window/windowed_receiver.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cwf::Timestamp;

constexpr int kTenths = 10;


/// Virtual clock that notes the host time at which virtual time first
/// reaches each tenth of [first arrival, last arrival].
class TenthClock : public cwf::VirtualClock {
 public:
  TenthClock(Timestamp first, Timestamp last,
             std::function<void(int)> on_tenth)
      : first_(first), last_(last), on_tenth_(std::move(on_tenth)) {}

  void AdvanceTo(Timestamp t) override {
    cwf::VirtualClock::AdvanceTo(t);
    ++advances_;
    while (next_ <= kTenths && t >= Boundary(next_)) {
      host_at_[next_] = HostSeconds();
      if (on_tenth_) {
        on_tenth_(next_);
      }
      ++next_;
    }
  }

  /// Run starts: tenth 0 is the host time the director begins.
  void Start() { host_at_[0] = HostSeconds(); }
  /// Run ended: tenths virtual time never reached end now.
  void Finish() {
    const double now = HostSeconds();
    for (; next_ <= kTenths; ++next_) {
      host_at_[next_] = now;
    }
  }

  Timestamp Boundary(int k) const {
    return first_ + (last_ - first_) * k / kTenths;
  }
  double host_at(int k) const { return host_at_[k]; }
  uint64_t advances() const { return advances_; }

 private:
  Timestamp first_;
  Timestamp last_;
  std::function<void(int)> on_tenth_;
  int next_ = 1;
  double host_at_[kTenths + 1] = {};
  uint64_t advances_ = 0;
};

cwf::lrb::ExperimentOptions MakeExperiment(uint64_t seed, bool overload) {
  cwf::lrb::ExperimentOptions options;
  options.scheduler = cwf::lrb::SchedulerKind::kQBS;
  options.hierarchical = true;
  options.workload.seed = seed;
  // Frequent accidents, so alerts appear within the run despite the
  // detection lag of the four-report stopped-car window.
  options.workload.mean_accident_gap = 10;
  if (overload) {
    // A constant rate above the SCWF virtual capacity (~160 reports/s):
    // the ramp's cap from the first second.
    options.workload.duration = cwf::Seconds(34);
    options.workload.initial_rate = 200;
    options.workload.rate_slope_per_sec = 0;
  } else {
    // Figure 5's ramp, stopped while still below capacity.
    options.workload.duration = cwf::Seconds(150);
  }
  return options;
}

uint64_t HashRow(const cwf::db::Row& row) {
  uint64_t h = Fnv64(nullptr, 0);
  for (const cwf::Value& v : row) {
    if (v.is_int()) {
      const int64_t x = v.AsInt();
      h = Fnv64("i", 1, h);
      h = Fnv64(&x, sizeof(x), h);
    } else if (v.is_double()) {
      const double x = v.AsDouble();
      uint64_t bits = 0;
      std::memcpy(&bits, &x, sizeof(bits));
      h = Fnv64("d", 1, h);
      h = Fnv64(&bits, sizeof(bits), h);
    } else if (v.is_bool()) {
      const char x = v.AsBool() ? '1' : '0';
      h = Fnv64("b", 1, h);
      h = Fnv64(&x, 1, h);
    } else if (v.is_string()) {
      h = Fnv64("s", 1, h);
      h = Fnv64(v.AsString().data(), v.AsString().size(), h);
    } else {
      h = Fnv64("n", 1, h);
    }
  }
  return h;
}

std::vector<uint64_t> AsUnsigned(const std::vector<int64_t>& values) {
  return std::vector<uint64_t>(values.begin(), values.end());
}

/// The regression fingerprint of one experiment: exact response-time
/// multisets, every final db row, and the actors' output counters.
Fingerprint MakeFingerprint(const cwf::lrb::LRBApplication& app) {
  Fingerprint fp;
  fp.multisets["toll_us"] = AsUnsigned(app.toll_series->ResponseMicros());
  fp.multisets["alert_us"] = AsUnsigned(app.accident_series->ResponseMicros());
  fp.scalars["tolls_calculated"] = app.toll_calculator->tolls_calculated();
  fp.scalars["accidents_recorded"] = app.insert_accident->accidents_recorded();
  for (const std::string& name : app.database->TableNames()) {
    auto table = app.database->GetTable(name);
    if (!table.ok()) {
      continue;
    }
    auto rows = table.value()->Select(cwf::db::True());
    std::vector<uint64_t>& hashes = fp.multisets["db." + name];
    if (rows.ok()) {
      for (const cwf::db::Row& row : rows.value()) {
        hashes.push_back(HashRow(row));
      }
    }
  }
  fp.Sort();
  return fp;
}

/// The part of a fingerprint lrb::RunLRBExperiment also exposes: counters
/// and the response-time histograms.
void AddHistogram(const std::string& prefix,
                  const cwf::obs::HistogramSnapshot& h, Fingerprint* fp) {
  fp->scalars[prefix + ".count"] = h.count;
  fp->scalars[prefix + ".sum"] = static_cast<uint64_t>(h.sum);
  fp->scalars[prefix + ".max"] = static_cast<uint64_t>(h.max);
  for (const auto& [upper, n] : h.buckets) {
    fp->scalars[prefix + ".le" + std::to_string(upper)] = n;
  }
}

cwf::obs::HistogramSnapshot HistogramOf(const std::vector<uint64_t>& us) {
  cwf::obs::Histogram h;
  for (const uint64_t v : us) {
    h.Record(static_cast<int64_t>(v));
  }
  return h.Snapshot();
}

Fingerprint HarnessView(const Fingerprint& fp) {
  Fingerprint view;
  view.scalars["tolls_calculated"] = fp.scalars.at("tolls_calculated");
  view.scalars["accidents_recorded"] = fp.scalars.at("accidents_recorded");
  AddHistogram("toll_us", HistogramOf(fp.multisets.at("toll_us")), &view);
  AddHistogram("alert_us", HistogramOf(fp.multisets.at("alert_us")), &view);
  return view;
}

Fingerprint HarnessView(const cwf::lrb::ExperimentResult& r) {
  Fingerprint view;
  view.scalars["tolls_calculated"] = r.tolls_calculated;
  view.scalars["accidents_recorded"] = r.accidents_recorded;
  AddHistogram("toll_us", r.toll_response_hist, &view);
  AddHistogram("alert_us", r.accident_response_hist, &view);
  return view;
}

// ---------------------------------------------------------------------------
// Profiler snapshots (traced runs)
// ---------------------------------------------------------------------------

struct Cell {
  double self_ns = 0;
  double samples = 0;
};

/// (label, phase slug) -> cumulative cell.
using ProfileTable = std::map<std::pair<std::string, std::string>, Cell>;

ProfileTable TakeProfile() {
  ProfileTable table;
  const cwf::obs::ProfileSnapshot snap =
      cwf::obs::SnapshotProfile(cwf::obs::MetricsRegistry::Global());
  for (const auto& e : snap.entries) {
    Cell& c = table[{e.actor, cwf::obs::ProfilePhaseName(e.phase)}];
    c.self_ns += static_cast<double>(e.self_ns);
    c.samples += static_cast<double>(e.samples);
  }
  return table;
}

ProfileTable Diff(const ProfileTable& later, const ProfileTable& earlier) {
  ProfileTable out = later;
  for (const auto& [key, cell] : earlier) {
    out[key].self_ns -= cell.self_ns;
    out[key].samples -= cell.samples;
  }
  return out;
}

/// Self µs per sample of one (label, phase) cell.
double PerSampleUs(const ProfileTable& t, const std::string& label,
                   const std::string& phase) {
  auto it = t.find({label, phase});
  if (it == t.end() || it->second.samples <= 0) {
    return 0;
  }
  return it->second.self_ns / it->second.samples / 1000.0;
}

/// Self µs per sample summed over every label of one phase.
double PhasePerSampleUs(const ProfileTable& t, const std::string& phase) {
  Cell total;
  for (const auto& [key, cell] : t) {
    if (key.second == phase) {
      total.self_ns += cell.self_ns;
      total.samples += cell.samples;
    }
  }
  return total.samples <= 0 ? 0 : total.self_ns / total.samples / 1000.0;
}

/// The repository module each profiler phase's time belongs to.
const char* LayerOfPhase(const std::string& phase) {
  if (phase == "receiver_put" || phase == "receiver_get" ||
      phase == "prefire") {
    return "window";
  }
  if (phase == "fire" || phase == "postfire") {
    return "lrb";
  }
  if (phase == "wave_close") {
    return "obs";
  }
  if (phase == "serialization") {
    return "net";
  }
  return "directors";  // scheduler_dispatch, wave_open, allocation, blocked
}

std::map<std::string, double> LayerSelfNs(const ProfileTable& t) {
  std::map<std::string, double> layers;
  for (const auto& [key, cell] : t) {
    layers[LayerOfPhase(key.second)] += cell.self_ns;
  }
  return layers;
}

// ---------------------------------------------------------------------------
// One experiment
// ---------------------------------------------------------------------------

struct Rep {
  double generate_s = 0;
  double build_s = 0;
  double initialize_s = 0;
  double run_s = 0;
  double wrapup_s = 0;
  double drain_s = 0;
  size_t reports = 0;
  size_t tenth_reports[kTenths + 1] = {};
  double tenth_host_s[kTenths + 1] = {};
  uint64_t clock_advances = 0;
  uint64_t director_iterations = 0;
  Fingerprint fingerprint;
  /// Traced runs only: the profile when virtual time reached tenth k
  /// (index 0 stays empty: the registry is reset just before Run), and
  /// after Run; window and db state after the run.
  std::vector<ProfileTable> tenth_profiles;
  ProfileTable run_profile;
  std::map<std::string, double> state;

  double setup_s() const { return generate_s + build_s + initialize_s; }
};

/// Generate + build + initialize; with `run` false the experiment stops
/// there (set-up-only repetitions for setup_s).
bool RunExperiment(const cwf::lrb::ExperimentOptions& options, bool run,
                   bool traced, Rep* rep, std::string* error) {
  if (traced) {
    // Tracks register at Initialize, so the tracer is cleared before it.
    cwf::obs::ResetGlobalTracer();
  }
  const double t0 = HostSeconds();
  cwf::lrb::Generator generator(options.workload);
  cwf::Trace trace = generator.Generate();
  auto feed = std::make_shared<cwf::PushChannel>();
  feed->PushTrace(trace);
  feed->Close();
  const double t1 = HostSeconds();
  auto built = cwf::lrb::BuildLRBApplication(feed, options.hierarchical);
  if (!built.ok()) {
    *error = "BuildLRBApplication: " + built.status().ToString();
    return false;
  }
  cwf::lrb::LRBApplication app = std::move(built).value();
  const double t2 = HostSeconds();

  const Timestamp first = trace.empty() ? Timestamp(0) : trace[0].arrival;
  const Timestamp last = trace.EndTime();
  TenthClock clock(first, last, [&](int k) {
    if (traced) {
      rep->tenth_profiles[k] = TakeProfile();
    }
  });
  cwf::SCWFDirector director(cwf::lrb::MakeScheduler(options));
  cwf::Status status = director.Initialize(app.workflow.get(), &clock,
                                           &options.cost_model);
  const double t3 = HostSeconds();
  if (!status.ok()) {
    *error = "Initialize: " + status.ToString();
    return false;
  }
  rep->generate_s = t1 - t0;
  rep->build_s = t2 - t1;
  rep->initialize_s = t3 - t2;
  if (!run) {
    return true;
  }

  rep->reports = trace.size();
  for (const cwf::TraceEntry& e : trace.entries()) {
    int k = 1;
    while (k < kTenths && e.arrival > clock.Boundary(k)) {
      ++k;
    }
    ++rep->tenth_reports[k];
  }
  if (traced) {
    cwf::obs::MetricsRegistry::Global().Reset();
    cwf::obs::SetProfilingEnabled(true);
    cwf::obs::SetTracingEnabled(true);
    rep->tenth_profiles.assign(kTenths + 1, ProfileTable());
  }
  const Timestamp horizon =
      Timestamp(0) + (last - Timestamp(0)) + options.drain_slack;
  clock.Start();
  status = director.Run(horizon);
  const double t4 = HostSeconds();
  clock.Finish();
  if (traced) {
    rep->run_profile = TakeProfile();
  }
  if (!status.ok()) {
    *error = "Run: " + status.ToString();
    return false;
  }
  status = director.Wrapup();
  const double t5 = HostSeconds();
  if (traced) {
    cwf::obs::SetProfilingEnabled(false);
    cwf::obs::SetTracingEnabled(false);
  }
  if (!status.ok()) {
    *error = "Wrapup: " + status.ToString();
    return false;
  }
  rep->run_s = t4 - clock.host_at(0);
  rep->wrapup_s = t5 - t4;
  rep->drain_s = t4 - clock.host_at(kTenths);
  for (int k = 1; k <= kTenths; ++k) {
    rep->tenth_host_s[k] = clock.host_at(k) - clock.host_at(k - 1);
  }
  rep->clock_advances = clock.advances();
  rep->director_iterations = director.director_iterations();
  rep->fingerprint = MakeFingerprint(app);

  if (traced) {
    // Window state, read through each port's receiver.
    std::vector<const cwf::Actor*> actors;
    for (const auto& a : app.workflow->actors()) {
      actors.push_back(a.get());
      if (auto* c = dynamic_cast<const cwf::CompositeActor*>(a.get())) {
        for (const auto& inner : c->inner()->actors()) {
          actors.push_back(inner.get());
        }
      }
    }
    double groups = 0;
    double buffered = 0;
    double windows = 0;
    double events_in_windows = 0;
    for (const cwf::Actor* a : actors) {
      for (const auto& port : a->input_ports()) {
        for (size_t c = 0; c < port->ChannelCount(); ++c) {
          const auto* r =
              dynamic_cast<const cwf::WindowedReceiver*>(port->receiver(c));
          if (r == nullptr) {
            continue;
          }
          const cwf::WindowOperator& op = r->window_operator();
          groups += static_cast<double>(op.GroupCount());
          buffered += static_cast<double>(op.PendingEventCount());
          windows += static_cast<double>(op.windows_produced());
          rep->state["window.groups." + a->name()] +=
              static_cast<double>(op.GroupCount());
        }
      }
    }
    // Events consumed per window: every consumed event arrived in a window.
    auto& reg = cwf::obs::MetricsRegistry::Global();
    for (const std::string& label :
         reg.LabelValues("cwf_actor_events_consumed_total")) {
      events_in_windows += static_cast<double>(
          reg.GetCounter("cwf_actor_events_consumed_total", "actor", label)
              ->Value());
    }
    rep->state["window.groups_total"] = groups;
    rep->state["window.buffered_events_total"] = buffered;
    rep->state["window.windows_produced_total"] = windows;
    rep->state["window.events_per_window"] =
        windows > 0 ? events_in_windows / windows : 0;
    double lookups = 0;
    double scans = 0;
    double rows = 0;
    for (const std::string& name : app.database->TableNames()) {
      auto table = app.database->GetTable(name);
      if (table.ok()) {
        lookups += static_cast<double>(table.value()->index_lookups());
        scans += static_cast<double>(table.value()->full_scans());
        rows += static_cast<double>(table.value()->RowCount());
      }
    }
    rep->state["db.index_lookups"] = lookups;
    rep->state["db.full_scans"] = scans;
    rep->state["db.rows"] = rows;
  }
  return true;
}

double SumCounter(const std::string& name, const std::string& label_key) {
  auto& reg = cwf::obs::MetricsRegistry::Global();
  double total = 0;
  for (const std::string& label : reg.LabelValues(name)) {
    total += static_cast<double>(reg.GetCounter(name, label_key, label)->Value());
  }
  return total;
}

double MaxGauge(const std::string& name, const std::string& label_key) {
  auto& reg = cwf::obs::MetricsRegistry::Global();
  double peak = 0;
  for (const std::string& label : reg.LabelValues(name)) {
    peak = std::max(
        peak, static_cast<double>(reg.GetGauge(name, label_key, label)->Max()));
  }
  return peak;
}

void CheckAgainst(const Fingerprint& reference, const Fingerprint& actual,
                  const std::string& what, WorkloadResult* result) {
  const size_t before = result->problems.size();
  CompareFingerprints(reference, actual, result);
  for (size_t i = before; i < result->problems.size(); ++i) {
    result->problems[i] = what + ": " + result->problems[i];
  }
}

void PrintResponse(const std::string& name, const std::vector<uint64_t>& us,
                   double p) {
  std::vector<int64_t> sorted(us.begin(), us.end());
  std::sort(sorted.begin(), sorted.end());
  PrintInfo(name, static_cast<double>(ExactPercentile(sorted, p)) / 1e6, "vs",
            sorted.size());
}

}  // namespace

WorkloadResult RunLrbWorkload(const Options& options, bool overload) {
  WorkloadResult result;
  const cwf::lrb::ExperimentOptions experiment =
      MakeExperiment(options.seed, overload);
  // Metrics stay at the engine default (on); the profiler and the wave
  // tracer are on only for the traced experiment.
  cwf::obs::SetProfilingEnabled(false);
  cwf::obs::SetTracingEnabled(false);

  std::string error;
  // Set-up-only repetitions for setup_s, spread over the run (a few before
  // every experiment) so the median sees the whole run's conditions.
  std::vector<double> setup_s;
  auto measure_setups = [&](int count) {
    for (int i = 0; i < count; ++i) {
      Rep rep;
      if (!RunExperiment(experiment, /*run=*/false, false, &rep, &error)) {
        return false;
      }
      setup_s.push_back(rep.setup_s());
    }
    return true;
  };

  std::vector<Rep> reps;
  const double start = HostSeconds();
  // Untraced: repeat while another experiment still fits the budget.
  // Traced: the traced experiment between two untraced ones, whose mean
  // Run time is the baseline of the tracing overhead.
  for (;;) {
    const bool traced = options.trace && reps.size() == 1;
    Rep rep;
    if (!measure_setups(3) ||
        !RunExperiment(experiment, /*run=*/true, traced, &rep, &error)) {
      result.problems.push_back(error);
      result.failed = result.attempted = 1;
      return result;
    }
    setup_s.push_back(rep.setup_s());
    reps.push_back(std::move(rep));
    if (options.trace) {
      if (reps.size() == 3) {
        break;
      }
      continue;
    }
    const double elapsed = HostSeconds() - start;
    const double per_rep = elapsed / static_cast<double>(reps.size());
    if (elapsed + per_rep > options.seconds) {
      break;
    }
  }

  // ---- output check ----
  // Every experiment must reproduce the stored fingerprint of this seed
  // (exact multisets), else its stored digest, else the first experiment
  // (runs are deterministic).
  Fingerprint reference;
  StoredDigest digest;
  const bool have_reference = LoadReference(options, &reference);
  const bool have_digest = !have_reference && LoadDigest(options, &digest);
  for (size_t i = 0; i < reps.size(); ++i) {
    const Fingerprint& fp = reps[i].fingerprint;
    const std::string what = "experiment " + std::to_string(i);
    if (have_reference) {
      CheckAgainst(reference, fp, what, &result);
    } else if (have_digest) {
      CheckDigest(digest, fp, what, &result);
    } else if (i > 0) {
      CheckAgainst(reps[0].fingerprint, fp, what, &result);
    } else {
      result.attempted += fp.multisets.at("toll_us").size() +
                          fp.multisets.at("alert_us").size();
    }
  }
  {
    std::string line = "# digest " + std::to_string(options.seed) + " ";
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(
                      reps[0].fingerprint.Digest()));
    line += hex;
    for (const auto& [name, values] : reps[0].fingerprint.multisets) {
      line += " " + name + "=" + std::to_string(values.size());
    }
    std::printf("%s\n", line.c_str());
  }
  if (!options.write_reference.empty() &&
      !WriteFile(options.write_reference, reps[0].fingerprint.Serialize())) {
    result.problems.push_back("cannot write " + options.write_reference);
  }
  // The benchmark's own LRB code must agree with the engine's harness. It
  // costs one more experiment, so only traced runs (and reference
  // recording) make it.
  if (options.trace || !options.write_reference.empty()) {
    auto harness = cwf::lrb::RunLRBExperiment(experiment);
    if (!harness.ok() || !harness.value().status.ok()) {
      result.problems.push_back("RunLRBExperiment failed");
      result.failed += 1;
      result.attempted += 1;
    } else {
      CheckAgainst(HarnessView(harness.value()),
                   HarnessView(reps[0].fingerprint), "vs RunLRBExperiment",
                   &result);
    }
  }

  const Rep& first = reps[0];
  const std::vector<uint64_t>& tolls = first.fingerprint.multisets.at("toll_us");
  const std::vector<uint64_t>& alerts =
      first.fingerprint.multisets.at("alert_us");
  std::vector<int64_t> toll_sorted(tolls.begin(), tolls.end());
  std::sort(toll_sorted.begin(), toll_sorted.end());

  std::printf("# workload %s seed %llu: %zu reports, %zu tolls, %zu alerts, "
              "%zu experiments%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), first.reports,
              tolls.size(), alerts.size(), reps.size(),
              have_reference ? ", stored reference" : "");
  PrintResponse("toll_resp_p50_vs", tolls, 50);
  PrintResponse("toll_resp_p99_vs", tolls, 99);
  PrintResponse("toll_resp_phi_vs", tolls,
                HighestSupportedPercentile(tolls.size()));
  PrintResponse("alert_resp_p50_vs", alerts, 50);
  PrintResponse("alert_resp_p95_vs", alerts, 95);

  if (!options.trace) {
    std::vector<double> per_report;
    std::vector<double> tail;
    for (const Rep& r : reps) {
      per_report.push_back((r.run_s + r.wrapup_s) * 1e6 /
                           static_cast<double>(r.reports));
      tail.push_back(r.tenth_host_s[kTenths] * 1e6 /
                     static_cast<double>(r.tenth_reports[kTenths]));
    }
    const double setup = Median(setup_s);
    const double host = Median(per_report);
    const double tail_host = Median(tail);
    PrintInfo("setup_s", setup, "s", setup_s.size());
    PrintInfo("host_us_per_report", host, "us", per_report.size());
    for (size_t i = 0; i < reps.size(); ++i) {
      std::printf("#   experiment %zu: %.1f us/report, tail %.1f us/report\n",
                  i, per_report[i], tail[i]);
    }
    PrintInfo("tail_host_us_per_report", tail_host, "us", tail.size());
    result.metrics = {
        {"setup_s", setup, "s"},
        {"host_us_per_report", host, "us"},
        {"tail_host_us_per_report", tail_host, "us"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    return result;
  }

  // ---- traced: per-layer metrics ----
  const double base_run_s = (reps[0].run_s + reps[2].run_s) / 2;
  const Rep& rep = reps[1];
  const double reports = static_cast<double>(rep.reports);
  const ProfileTable& all = rep.run_profile;
  const ProfileTable head = rep.tenth_profiles[1];
  const ProfileTable tail =
      Diff(rep.tenth_profiles[kTenths], rep.tenth_profiles[kTenths - 1]);
  auto put = [&](const ProfileTable& t, const std::string& actor) {
    return PerSampleUs(t, actor + ".in", "receiver_put");
  };
  std::vector<Metric>& m = result.metrics;
  for (const char* actor : {"Avgsv", "TollCalculation", "cars", "Avgs",
                            "AccidentDetection", "AccidentNotification"}) {
    m.push_back({std::string("window.put_us.") + actor, put(all, actor), "us"});
  }
  m.push_back({"window.put_us.Avgsv.last_tenth", put(tail, "Avgsv"), "us"});
  m.push_back({"window.prefire_us.Avgsv", PerSampleUs(all, "Avgsv", "prefire"),
               "us"});
  m.push_back({"window.prefire_us.TollCalculation",
               PerSampleUs(all, "TollCalculation", "prefire"), "us"});
  m.push_back({"window.get_us", PhasePerSampleUs(all, "receiver_get"), "us"});
  for (const char* actor : {"Avgsv", "TollCalculation"}) {
    auto it = rep.state.find(std::string("window.groups.") + actor);
    m.push_back({std::string("window.groups.") + actor,
                 it == rep.state.end() ? 0 : it->second, "count"});
  }
  for (const char* key :
       {"window.groups_total", "window.buffered_events_total",
        "window.windows_produced_total", "window.events_per_window"}) {
    m.push_back({key, rep.state.at(key),
                 std::string(key) == "window.events_per_window" ? "ratio" : "count"});
  }
  for (const char* actor : {"AccidentDetection", "TollCalculation",
                            "AccidentNotification", "Avgsv"}) {
    m.push_back({std::string("lrb.fire_us.") + actor,
                 PerSampleUs(all, actor, "fire"), "us"});
  }
  m.push_back({"lrb.generate_s", rep.generate_s, "s"});
  m.push_back({"lrb.build_s", rep.build_s, "s"});
  {
    std::vector<int64_t> a(alerts.begin(), alerts.end());
    std::sort(a.begin(), a.end());
    m.push_back({"lrb.toll_resp_p50_vs",
                 static_cast<double>(ExactPercentile(toll_sorted, 50)) / 1e6,
                 "s"});
    m.push_back({"lrb.toll_resp_p99_vs",
                 static_cast<double>(ExactPercentile(toll_sorted, 99)) / 1e6,
                 "s"});
    m.push_back({"lrb.alert_resp_p95_vs",
                 static_cast<double>(ExactPercentile(a, 95)) / 1e6, "s"});
  }
  m.push_back({"analysis.initialize_s", rep.initialize_s, "s"});
  m.push_back({"directors.dispatch_us",
               PerSampleUs(all, "<scheduler>", "scheduler_dispatch"), "us"});
  m.push_back({"directors.wave_open_us",
               PerSampleUs(all, "<director>", "wave_open"), "us"});
  m.push_back({"directors.alloc_us",
               PerSampleUs(all, "<director>", "allocation"), "us"});
  m.push_back({"directors.firings_per_report",
               SumCounter("cwf_actor_firings_total", "actor") / reports,
               "ratio"});
  m.push_back({"directors.iterations",
               static_cast<double>(rep.director_iterations), "count"});
  m.push_back({"directors.clock_advances",
               static_cast<double>(rep.clock_advances), "count"});
  m.push_back({"directors.drain_s", rep.drain_s, "s"});
  m.push_back({"directors.run_s", rep.run_s, "s"});
  m.push_back({"stafilos.decisions_per_report",
               SumCounter("cwf_sched_decisions_total", "actor") / reports,
               "ratio"});
  m.push_back({"stafilos.ready_events_peak",
               static_cast<double>(cwf::obs::MetricsRegistry::Global()
                                       .GetHistogram("cwf_sched_ready_events")
                                       ->Max()),
               "count"});
  m.push_back({"stafilos.queue_hwm_max", MaxGauge("cwf_actor_queue_hwm", "actor"),
               "count"});
  m.push_back({"core.receiver_puts_per_report",
               SumCounter("cwf_receiver_puts_total", "port") / reports, "ratio"});
  m.push_back({"core.receiver_gets_per_report",
               SumCounter("cwf_receiver_gets_total", "port") / reports, "ratio"});
  const double lookups = rep.state.at("db.index_lookups");
  const double scans = rep.state.at("db.full_scans");
  m.push_back({"db.index_lookups_per_report", lookups / reports, "ratio"});
  m.push_back({"db.full_scans_per_report", scans / reports, "ratio"});
  m.push_back({"db.scan_share",
               lookups + scans > 0 ? scans / (lookups + scans) : 0, "ratio"});
  m.push_back({"db.rows", rep.state.at("db.rows"), "count"});

  // Where each tenth's host time went, per layer.
  const std::map<std::string, double> head_layers = LayerSelfNs(head);
  const std::map<std::string, double> tail_layers = LayerSelfNs(tail);
  const double head_reports = static_cast<double>(rep.tenth_reports[1]);
  const double tail_reports = static_cast<double>(rep.tenth_reports[kTenths]);
  double tail_attributed_ns = 0;
  for (const char* layer : {"window", "lrb", "directors", "obs"}) {
    auto h = head_layers.find(layer);
    auto t = tail_layers.find(layer);
    const double head_ns = h == head_layers.end() ? 0 : h->second;
    const double tail_ns = t == tail_layers.end() ? 0 : t->second;
    tail_attributed_ns += tail_ns;
    m.push_back({std::string(layer) + ".first_tenth_us_per_report",
                 head_ns / 1e3 / head_reports, "us"});
    m.push_back({std::string(layer) + ".last_tenth_us_per_report",
                 tail_ns / 1e3 / tail_reports, "us"});
  }
  const double traced_tail_us =
      rep.tenth_host_s[kTenths] * 1e6 / tail_reports;
  m.push_back({"obs.traced_tail_host_us_per_report", traced_tail_us, "us"});
  m.push_back({"obs.unprofiled_last_tenth_us_per_report",
               traced_tail_us - tail_attributed_ns / 1e3 / tail_reports, "us"});
  double profiled_ns = 0;
  for (const auto& [key, cell] : all) {
    profiled_ns += cell.self_ns;
  }
  m.push_back({"obs.profile_coverage_pct", profiled_ns / (rep.run_s * 1e9) * 100,
               "%"});
  m.push_back({"obs.trace_overhead_pct", (rep.run_s - base_run_s) / base_run_s * 100,
               "%"});
  return result;
}

}  // namespace perfbench
