// The benchmark's workloads. Each runs in its own process and returns
// either the end-to-end metrics (untraced) or the per-layer metrics
// (traced), plus the outcome of its output check.

#ifndef CONFLUENCE_PERFBENCH_WORKLOADS_H_
#define CONFLUENCE_PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// \brief Every end-to-end metric; each workload measures all of them.
const std::vector<MetricSpec>& EndToEndMetrics();

/// \brief Every per-layer metric. A workload that does not run through a
/// layer reports that layer's metrics as 0.
const std::vector<MetricSpec>& PerLayerMetrics();

/// \brief lrb_ramp (`overload` false) or lrb_overload (`overload` true).
WorkloadResult RunLrbWorkload(const Options& options, bool overload);

/// \brief ingest_door.
WorkloadResult RunIngestWorkload(const Options& options);

}  // namespace perfbench

#endif  // CONFLUENCE_PERFBENCH_WORKLOADS_H_
