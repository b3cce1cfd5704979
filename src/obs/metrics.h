// Low-overhead runtime metrics: counters, gauges and log-bucketed latency
// histograms behind a process-wide registry.
//
// The engine's hot paths (actor firings, receiver deposits, scheduler
// decisions) resolve their instruments ONCE at Director::Initialize and
// afterwards touch nothing but relaxed atomics — the registry lock is never
// taken on a hot path. Instrument pointers returned by the registry stay
// valid for the registry's lifetime (Reset() zeroes values but never
// invalidates pointers).
//
// Export format: Prometheus text exposition (RenderPrometheus), served over
// TCP by obs::MetricsServer. The runtime toggles below are the only on/off
// switches for telemetry.

#ifndef CONFLUENCE_OBS_METRICS_H_
#define CONFLUENCE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/lock_registry.h"

namespace cwf::obs {

// ---------------------------------------------------------------------------
// Runtime toggles.
// Metrics default ON, tracing default OFF (tracing buffers every firing).
// ---------------------------------------------------------------------------

bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);
bool TracingEnabled();
void SetTracingEnabled(bool enabled);

/// \brief Host monotonic clock, microseconds since process start. Cheap
/// enough for per-firing phase timing; shared with common/logging so log
/// lines and host-side measurements read off one base.
int64_t HostMonotonicMicros();

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// \brief Monotone counter, sharded across cache lines so concurrent
/// producers (PNCWF actor threads, TCP readers) don't contend on one word.
class Counter {
 public:
  static constexpr size_t kShards = 8;

  void Add(uint64_t n = 1) {
    shards_[ShardIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Shard& s : shards_) {
      s.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  static size_t ShardIndex();

  Shard shards_[kShards];
};

/// \brief Last-value gauge with an additional monotone maximum (the
/// high-water-mark companion of queue-depth style gauges).
class Gauge {
 public:
  void Set(int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    UpdateMax(v);
  }

  void Add(int64_t delta) {
    const int64_t now = value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    UpdateMax(now);
  }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  int64_t Max() const { return max_.load(std::memory_order_relaxed); }

  void Reset() {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  void UpdateMax(int64_t v) {
    int64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

/// \brief Point-in-time view of a histogram (plain data, copyable).
struct HistogramSnapshot {
  uint64_t count = 0;
  int64_t sum = 0;
  int64_t max = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  /// (inclusive upper bound, events in bucket) for every non-empty bucket,
  /// in ascending bound order. The last bound may be the overflow bucket's.
  std::vector<std::pair<int64_t, uint64_t>> buckets;
};

/// \brief Log-bucketed (power-of-two) histogram of non-negative integer
/// samples — microsecond latencies in practice.
///
/// Bucket 0 holds values <= 0; bucket i (1 <= i < kBuckets-1) holds
/// [2^(i-1), 2^i - 1]; the final bucket is the overflow bucket holding
/// everything >= 2^(kBuckets-2). Updates are relaxed atomics; percentiles
/// interpolate linearly inside a bucket.
class Histogram {
 public:
  static constexpr size_t kBuckets = 40;

  void Record(int64_t value);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t Max() const { return max_.load(std::memory_order_relaxed); }
  double Mean() const;

  /// \brief p-th percentile (0..100). 0 when empty.
  double Percentile(double p) const;

  /// \brief Fold another histogram's samples into this one (aggregation
  /// across shards / runs; used by tests and the LRB bench export).
  void MergeFrom(const Histogram& other);

  HistogramSnapshot Snapshot() const;

  void Reset();

  /// \brief Bucket index a value lands in (exposed for boundary tests).
  static size_t BucketIndex(int64_t value);

  /// \brief Inclusive upper bound of bucket `i` (lower bound of the
  /// overflow bucket's range for the final bucket).
  static int64_t BucketUpperBound(size_t i);

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> max_{0};
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// \brief Name + single optional label pair identifying one instrument.
/// One label dimension (actor / port / policy) covers every engine metric
/// and keeps the exposition fast to render.
struct MetricKey {
  std::string name;
  std::string label_key;
  std::string label_value;

  bool operator<(const MetricKey& o) const {
    if (name != o.name) return name < o.name;
    if (label_key != o.label_key) return label_key < o.label_key;
    return label_value < o.label_value;
  }
};

/// \brief Process-wide instrument registry with stable instrument pointers.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// \brief The engine-wide default registry every director binds to.
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name, const std::string& label_key = "",
                      const std::string& label_value = "");
  Gauge* GetGauge(const std::string& name, const std::string& label_key = "",
                  const std::string& label_value = "");
  Histogram* GetHistogram(const std::string& name,
                          const std::string& label_key = "",
                          const std::string& label_value = "");

  /// \brief Attach HELP text rendered into the Prometheus exposition.
  void SetHelp(const std::string& name, const std::string& help);

  /// \brief Prometheus text exposition format 0.0.4.
  std::string RenderPrometheus() const;

  /// \brief Distinct label values seen for `name` (e.g. every actor with a
  /// firings counter) in sorted order; never creates an instrument.
  std::vector<std::string> LabelValues(const std::string& name) const;

  /// \brief Zero every instrument's value. Pointers stay valid — cached
  /// instrument handles in directors keep working (Initialize re-entry).
  void Reset();

  /// \brief Instrument count (tests).
  size_t size() const;

 private:
  mutable OrderedMutex mutex_{"obs::MetricsRegistry::mutex"};
  std::map<MetricKey, std::unique_ptr<Counter>> counters_
      CWF_GUARDED_BY(mutex_);
  std::map<MetricKey, std::unique_ptr<Gauge>> gauges_ CWF_GUARDED_BY(mutex_);
  std::map<MetricKey, std::unique_ptr<Histogram>> histograms_
      CWF_GUARDED_BY(mutex_);
  std::map<std::string, std::string> help_ CWF_GUARDED_BY(mutex_);
};

}  // namespace cwf::obs

#endif  // CONFLUENCE_OBS_METRICS_H_
