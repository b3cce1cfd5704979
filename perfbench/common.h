// Shared pieces of the benchmark program: command line, result line,
// statistics, host timing, output fingerprints.

#ifndef CONFLUENCE_PERFBENCH_COMMON_H_
#define CONFLUENCE_PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Directory holding <workload>_<seed>.ref fingerprints ("" = none).
  std::string reference_dir;
  /// When set, write this run's fingerprint here instead of checking it.
  std::string write_reference;
};

/// \brief One reported number.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// \brief What a workload hands back to main: the numbers and the outcome
/// of its output check.
struct WorkloadResult {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Checks that failed, one line each (printed to stderr).
  std::vector<std::string> problems;
};

/// \brief Seconds on the host's monotonic clock.
double HostSeconds();

/// \brief Peak resident set of this process, MB.
double PeakRssMb();

double Median(std::vector<double> values);

/// \brief Nearest-rank percentile of an ascending sample.
int64_t ExactPercentile(const std::vector<int64_t>& sorted, double p);

/// \brief The highest of the usual percentiles that still has at least
/// ten samples beyond it (0 when even the median has not).
double HighestSupportedPercentile(size_t n);

/// \brief Prints "# <name> <value> <unit> n=<count>" — the human-readable
/// lines that precede the result line.
void PrintInfo(const std::string& name, double value, const std::string& unit,
               uint64_t n);

/// \brief 64-bit FNV-1a over raw bytes, chainable through `h`.
uint64_t Fnv64(const void* data, size_t len,
               uint64_t h = 0xcbf29ce484222325ull);

/// \brief A run's outputs, reduced to what a regression check compares:
/// named scalars and named multisets of 64-bit values.
struct Fingerprint {
  std::map<std::string, uint64_t> scalars;
  std::map<std::string, std::vector<uint64_t>> multisets;  ///< kept sorted

  void Sort();
  /// \brief Order-independent digest of the whole fingerprint.
  uint64_t Digest() const;

  /// \brief Text form: one "scalar" or "multiset" line per entry, multiset
  /// values ascending and delta-encoded.
  std::string Serialize() const;
  static bool Parse(const std::string& text, Fingerprint* out);
};

/// \brief Compare `actual` against `reference`: every missing or extra
/// multiset element and every differing scalar counts as one failure
/// (a scalar off by d counts d, at least 1). Adds the reference's size to
/// `attempted`.
void CompareFingerprints(const Fingerprint& reference,
                         const Fingerprint& actual, WorkloadResult* result);

/// \brief Reads <dir>/<workload>_<seed>.ref; false when absent. A file
/// that does not parse yields a reference nothing matches.
bool LoadReference(const Options& options, Fingerprint* out);

/// \brief A fingerprint stored as its digest plus output counts (seeds
/// without a full reference file).
struct StoredDigest {
  uint64_t digest = 0;
  std::map<std::string, uint64_t> counts;  ///< multiset name -> size
};

/// \brief Finds "<workload> <seed> <digest> name=count..." in
/// <dir>/digests.txt; false when absent.
bool LoadDigest(const Options& options, StoredDigest* out);

/// \brief Compare `actual` against a stored digest. A differing digest
/// fails each output a count says is missing or extra, and at least one.
void CheckDigest(const StoredDigest& stored, const Fingerprint& actual,
                 const std::string& what, WorkloadResult* result);

bool WriteFile(const std::string& path, const std::string& text);

}  // namespace perfbench

#endif  // CONFLUENCE_PERFBENCH_COMMON_H_
