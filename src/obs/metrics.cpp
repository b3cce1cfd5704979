#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>
#include <sstream>
#include <thread>

namespace cwf::obs {
namespace {

std::atomic<bool> g_metrics_enabled{true};
std::atomic<bool> g_tracing_enabled{false};

/// Inclusive lower bound of bucket `i`.
int64_t BucketLowerBound(size_t i) {
  return i == 0 ? 0 : int64_t{1} << (i - 1);
}

/// Escape a Prometheus label value (backslash, quote, newline).
std::string EscapeLabel(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string RenderKey(const MetricKey& key, const std::string& suffix = "",
                      const std::string& extra_label = "") {
  std::string out = key.name + suffix;
  const bool has_label = !key.label_key.empty();
  if (has_label || !extra_label.empty()) {
    out += '{';
    if (has_label) {
      out += key.label_key + "=\"" + EscapeLabel(key.label_value) + "\"";
      if (!extra_label.empty()) {
        out += ',';
      }
    }
    out += extra_label;
    out += '}';
  }
  return out;
}

}  // namespace

bool MetricsEnabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}
void SetMetricsEnabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}
bool TracingEnabled() {
  return g_tracing_enabled.load(std::memory_order_relaxed);
}
void SetTracingEnabled(bool enabled) {
  g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

int64_t HostMonotonicMicros() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

size_t Counter::ShardIndex() {
  static thread_local const size_t index =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
  return index;
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

size_t Histogram::BucketIndex(int64_t value) {
  if (value <= 0) {
    return 0;
  }
  const size_t width = std::bit_width(static_cast<uint64_t>(value));
  return std::min(width, kBuckets - 1);
}

int64_t Histogram::BucketUpperBound(size_t i) {
  if (i == 0) {
    return 0;
  }
  if (i >= kBuckets - 1) {
    return std::numeric_limits<int64_t>::max();  // overflow bucket
  }
  return (int64_t{1} << i) - 1;
}

void Histogram::Record(int64_t value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  int64_t cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

double Histogram::Mean() const {
  const uint64_t n = Count();
  return n == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(n);
}

double Histogram::Percentile(double p) const {
  const uint64_t n = Count();
  if (n == 0) {
    return 0.0;
  }
  p = std::clamp(p, 0.0, 100.0);
  // Rank in (0, n]; p=100 selects the last sample's bucket.
  double target = p / 100.0 * static_cast<double>(n);
  if (target < 1.0) {
    target = 1.0;
  }
  uint64_t cum = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    const uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    if (c == 0) {
      continue;
    }
    if (static_cast<double>(cum + c) >= target) {
      const double lower = static_cast<double>(BucketLowerBound(i));
      // The overflow bucket has no finite upper boundary: the observed
      // maximum is the tightest bound we have. Same for the top of any
      // bucket containing the max.
      const double upper = std::min(static_cast<double>(Max()),
                                    static_cast<double>(BucketUpperBound(i)));
      const double fraction =
          (target - static_cast<double>(cum)) / static_cast<double>(c);
      return lower + fraction * std::max(0.0, upper - lower);
    }
    cum += c;
  }
  return static_cast<double>(Max());
}

void Histogram::MergeFrom(const Histogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) {
    const uint64_t c = other.buckets_[i].load(std::memory_order_relaxed);
    if (c != 0) {
      buckets_[i].fetch_add(c, std::memory_order_relaxed);
    }
  }
  count_.fetch_add(other.Count(), std::memory_order_relaxed);
  sum_.fetch_add(other.Sum(), std::memory_order_relaxed);
  const int64_t other_max = other.Max();
  int64_t cur = max_.load(std::memory_order_relaxed);
  while (other_max > cur &&
         !max_.compare_exchange_weak(cur, other_max,
                                     std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.count = Count();
  snap.sum = Sum();
  snap.max = Max();
  snap.mean = Mean();
  snap.p50 = Percentile(50);
  snap.p95 = Percentile(95);
  snap.p99 = Percentile(99);
  for (size_t i = 0; i < kBuckets; ++i) {
    const uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    if (c != 0) {
      snap.buckets.emplace_back(BucketUpperBound(i), c);
    }
  }
  return snap;
}

void Histogram::Reset() {
  for (auto& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& label_key,
                                     const std::string& label_value) {
  ScopedLock lock(mutex_);
  auto& slot = counters_[MetricKey{name, label_key, label_value}];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& label_key,
                                 const std::string& label_value) {
  ScopedLock lock(mutex_);
  auto& slot = gauges_[MetricKey{name, label_key, label_value}];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& label_key,
                                         const std::string& label_value) {
  ScopedLock lock(mutex_);
  auto& slot = histograms_[MetricKey{name, label_key, label_value}];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>();
  }
  return slot.get();
}

void MetricsRegistry::SetHelp(const std::string& name,
                              const std::string& help) {
  ScopedLock lock(mutex_);
  help_[name] = help;
}

std::string MetricsRegistry::RenderPrometheus() const {
  ScopedLock lock(mutex_);
  std::ostringstream out;
  std::string last_name;
  auto header = [&](const std::string& name, const char* type) {
    if (name == last_name) {
      return;
    }
    last_name = name;
    auto help = help_.find(name);
    if (help != help_.end()) {
      out << "# HELP " << name << " " << help->second << "\n";
    }
    out << "# TYPE " << name << " " << type << "\n";
  };

  for (const auto& [key, counter] : counters_) {
    header(key.name, "counter");
    out << RenderKey(key) << " " << counter->Value() << "\n";
  }
  last_name.clear();
  for (const auto& [key, gauge] : gauges_) {
    header(key.name, "gauge");
    out << RenderKey(key) << " " << gauge->Value() << "\n";
  }
  last_name.clear();
  for (const auto& [key, hist] : histograms_) {
    header(key.name, "histogram");
    const HistogramSnapshot snap = hist->Snapshot();
    uint64_t cum = 0;
    for (const auto& [bound, count] : snap.buckets) {
      cum += count;
      if (bound == std::numeric_limits<int64_t>::max()) {
        continue;  // folded into the +Inf bucket below
      }
      out << RenderKey(key, "_bucket",
                       "le=\"" + std::to_string(bound) + "\"")
          << " " << cum << "\n";
    }
    out << RenderKey(key, "_bucket", "le=\"+Inf\"") << " " << snap.count
        << "\n";
    out << RenderKey(key, "_sum") << " " << snap.sum << "\n";
    out << RenderKey(key, "_count") << " " << snap.count << "\n";
  }
  return out.str();
}

std::vector<std::string> MetricsRegistry::LabelValues(
    const std::string& name) const {
  ScopedLock lock(mutex_);
  std::vector<std::string> values;
  auto collect = [&](const auto& map) {
    for (const auto& [key, unused] : map) {
      (void)unused;
      if (key.name == name && !key.label_value.empty()) {
        values.push_back(key.label_value);
      }
    }
  };
  collect(counters_);
  collect(gauges_);
  collect(histograms_);
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

void MetricsRegistry::Reset() {
  ScopedLock lock(mutex_);
  for (auto& [key, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [key, gauge] : gauges_) {
    gauge->Reset();
  }
  for (auto& [key, hist] : histograms_) {
    hist->Reset();
  }
}

size_t MetricsRegistry::size() const {
  ScopedLock lock(mutex_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

}  // namespace cwf::obs
