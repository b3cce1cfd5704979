// perfbench: the repository benchmark program.
//
//   perfbench --workload lrb_ramp|lrb_overload|ingest_door --seed N
//             --seconds S --trace 0|1 [--reference-dir DIR]
//             [--write-reference FILE]
//
// Prints human-readable "# ..." lines, then, as the last line of standard
// output, one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics when untraced, the per-layer metrics when traced.
// Exits 1 when the output check fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"window.put_us.Avgsv", "us"},
      {"window.put_us.TollCalculation", "us"},
      {"window.put_us.cars", "us"},
      {"window.put_us.Avgs", "us"},
      {"window.put_us.AccidentDetection", "us"},
      {"window.put_us.AccidentNotification", "us"},
      {"window.put_us.Avgsv.last_tenth", "us"},
      {"window.prefire_us.Avgsv", "us"},
      {"window.prefire_us.TollCalculation", "us"},
      {"window.get_us", "us"},
      {"window.groups.Avgsv", "count"},
      {"window.groups.TollCalculation", "count"},
      {"window.groups_total", "count"},
      {"window.buffered_events_total", "count"},
      {"window.windows_produced_total", "count"},
      {"window.events_per_window", "ratio"},
      {"window.first_tenth_us_per_report", "us"},
      {"window.last_tenth_us_per_report", "us"},
      {"lrb.fire_us.AccidentDetection", "us"},
      {"lrb.fire_us.TollCalculation", "us"},
      {"lrb.fire_us.AccidentNotification", "us"},
      {"lrb.fire_us.Avgsv", "us"},
      {"lrb.first_tenth_us_per_report", "us"},
      {"lrb.last_tenth_us_per_report", "us"},
      {"lrb.generate_s", "s"},
      {"lrb.build_s", "s"},
      {"lrb.toll_resp_p50_vs", "s"},
      {"lrb.toll_resp_p99_vs", "s"},
      {"lrb.alert_resp_p95_vs", "s"},
      {"analysis.initialize_s", "s"},
      {"directors.dispatch_us", "us"},
      {"directors.wave_open_us", "us"},
      {"directors.alloc_us", "us"},
      {"directors.firings_per_report", "ratio"},
      {"directors.iterations", "count"},
      {"directors.clock_advances", "count"},
      {"directors.drain_s", "s"},
      {"directors.run_s", "s"},
      {"directors.first_tenth_us_per_report", "us"},
      {"directors.last_tenth_us_per_report", "us"},
      {"stafilos.decisions_per_report", "ratio"},
      {"stafilos.ready_events_peak", "count"},
      {"stafilos.queue_hwm_max", "count"},
      {"core.receiver_puts_per_report", "ratio"},
      {"core.receiver_gets_per_report", "ratio"},
      {"db.index_lookups_per_report", "ratio"},
      {"db.full_scans_per_report", "ratio"},
      {"db.scan_share", "ratio"},
      {"db.rows", "count"},
      {"net.ingest_tuples_per_s", "1/s"},
      {"net.ingest_lat_p50_us", "us"},
      {"net.ingest_lat_p99_us", "us"},
      {"net.start_s", "s"},
      {"net.decode_us_per_tuple", "us"},
      {"net.bytes_per_tuple", "B"},
      {"net.backpressure_pauses", "count"},
      {"net.paused_ms", "ms"},
      {"net.parse_errors", "count"},
      {"net.frame_errors", "count"},
      {"net.schema_rejects", "count"},
      {"net.staged_dropped", "count"},
      {"net.connections_rejected", "count"},
      {"stream.deposit_us_per_tuple", "us"},
      {"stream.pop_batch_mean", "ratio"},
      {"stream.consumer_wait_ms", "ms"},
      {"loadgen.late_p99_us", "us"},
      {"loadgen.send_blocked_ms", "ms"},
      {"loadgen.late_exceeds_latency", "count"},
      {"obs.first_tenth_us_per_report", "us"},
      {"obs.last_tenth_us_per_report", "us"},
      {"obs.traced_tail_host_us_per_report", "us"},
      {"obs.unprofiled_last_tenth_us_per_report", "us"},
      {"obs.profile_coverage_pct", "%"},
      {"obs.trace_overhead_pct", "%"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"host_us_per_report", "us"},
      {"tail_host_us_per_report", "us"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload lrb_ramp|lrb_overload|ingest_door "
               "--seed N --seconds S --trace 0|1 [--reference-dir DIR] "
               "[--write-reference FILE]\n",
               argv0);
  return 2;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage(argv[0]);
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--reference-dir") {
      options.reference_dir = value;
    } else if (arg == "--write-reference") {
      options.write_reference = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_seed || !(options.seconds > 0)) {
    return Usage(argv[0]);
  }

  WorkloadResult result;
  if (options.workload == "lrb_ramp") {
    result = RunLrbWorkload(options, /*overload=*/false);
  } else if (options.workload == "lrb_overload") {
    result = RunLrbWorkload(options, /*overload=*/true);
  } else if (options.workload == "ingest_door") {
    result = RunIngestWorkload(options);
  } else {
    return Usage(argv[0]);
  }

  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "output check: %s\n", problem.c_str());
  }
  std::map<std::string, Metric> by_name;
  for (const Metric& m : result.metrics) {
    by_name[m.name] = m;
  }
  std::vector<Metric> printed;
  for (const MetricSpec& spec :
       options.trace ? PerLayerMetrics() : EndToEndMetrics()) {
    auto it = by_name.find(spec.name);
    if (it == by_name.end() && !options.trace) {
      std::fprintf(stderr, "internal: workload did not measure %s\n",
                   spec.name);
      return 3;
    }
    // A per-layer metric of a layer this workload does not run through
    // reads 0.
    printed.push_back(
        {spec.name, it == by_name.end() ? 0.0 : it->second.value, spec.unit});
    if (it != by_name.end() && it->second.unit != spec.unit) {
      std::fprintf(stderr, "internal: %s measured in %s, declared %s\n",
                   spec.name, it->second.unit.c_str(), spec.unit);
      return 3;
    }
  }
  size_t declared = 0;
  for (const Metric& m : printed) {
    declared += by_name.count(m.name);
  }
  if (declared != by_name.size()) {
    std::fprintf(stderr, "internal: workload measured undeclared metrics\n");
    return 3;
  }
  const bool correct = result.failed == 0 && result.problems.empty();
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < printed.size(); ++i) {
    if (i > 0) {
      line += ", ";
    }
    line += "\"" + printed[i].name + "\": {\"value\": " +
            JsonNumber(printed[i].value) + ", \"unit\": \"" + printed[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
