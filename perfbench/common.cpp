#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double HostSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

int64_t ExactPercentile(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double HighestSupportedPercentile(size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const double at = std::ceil(p / 100.0 * static_cast<double>(n));
    if (static_cast<double>(n) - at >= 10) {
      return p;
    }
  }
  return 0;
}

void PrintInfo(const std::string& name, double value, const std::string& unit,
               uint64_t n) {
  std::printf("# %-36s %16.6f %-6s n=%llu\n", name.c_str(), value,
              unit.c_str(), static_cast<unsigned long long>(n));
}

uint64_t Fnv64(const void* data, size_t len, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

void Fingerprint::Sort() {
  for (auto& [name, values] : multisets) {
    std::sort(values.begin(), values.end());
  }
}

uint64_t Fingerprint::Digest() const {
  const std::string text = Serialize();
  return Fnv64(text.data(), text.size());
}

std::string Fingerprint::Serialize() const {
  std::ostringstream out;
  for (const auto& [name, value] : scalars) {
    out << "scalar " << name << ' ' << value << '\n';
  }
  for (const auto& [name, values] : multisets) {
    out << "multiset " << name << ' ' << values.size();
    uint64_t prev = 0;
    for (const uint64_t v : values) {
      out << ' ' << (v - prev);
      prev = v;
    }
    out << '\n';
  }
  return out.str();
}

bool Fingerprint::Parse(const std::string& text, Fingerprint* out) {
  std::istringstream in(text);
  std::string kind;
  while (in >> kind) {
    std::string name;
    if (!(in >> name)) {
      return false;
    }
    if (kind == "scalar") {
      uint64_t value = 0;
      if (!(in >> value)) {
        return false;
      }
      out->scalars[name] = value;
    } else if (kind == "multiset") {
      size_t n = 0;
      if (!(in >> n)) {
        return false;
      }
      std::vector<uint64_t>& values = out->multisets[name];
      values.reserve(n);
      uint64_t acc = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t delta = 0;
        if (!(in >> delta)) {
          return false;
        }
        acc += delta;
        values.push_back(acc);
      }
    } else {
      return false;
    }
  }
  return true;
}

void CompareFingerprints(const Fingerprint& reference,
                         const Fingerprint& actual, WorkloadResult* result) {
  for (const auto& [name, want] : reference.scalars) {
    result->attempted += 1;
    auto it = actual.scalars.find(name);
    const uint64_t got = it == actual.scalars.end() ? 0 : it->second;
    if (got != want) {
      const uint64_t diff = got > want ? got - want : want - got;
      result->failed += std::max<uint64_t>(1, diff);
      result->problems.push_back("scalar " + name + ": expected " +
                                 std::to_string(want) + ", got " +
                                 std::to_string(got));
    }
  }
  static const std::vector<uint64_t> kEmpty;
  for (const auto& [name, want] : reference.multisets) {
    result->attempted += want.size();
    auto it = actual.multisets.find(name);
    const std::vector<uint64_t>& got =
        it == actual.multisets.end() ? kEmpty : it->second;
    // Symmetric difference of two ascending multisets.
    uint64_t missing = 0;
    uint64_t extra = 0;
    size_t i = 0;
    size_t j = 0;
    while (i < want.size() || j < got.size()) {
      if (j == got.size() || (i < want.size() && want[i] < got[j])) {
        ++missing;
        ++i;
      } else if (i == want.size() || got[j] < want[i]) {
        ++extra;
        ++j;
      } else {
        ++i;
        ++j;
      }
    }
    if (missing + extra > 0) {
      result->failed += missing + extra;
      result->problems.push_back("multiset " + name + ": " +
                                 std::to_string(missing) + " missing, " +
                                 std::to_string(extra) + " extra");
    }
  }
}

bool LoadReference(const Options& options, Fingerprint* out) {
  if (options.reference_dir.empty()) {
    return false;
  }
  const std::string path = options.reference_dir + "/" + options.workload +
                           "_" + std::to_string(options.seed) + ".ref";
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  if (!Fingerprint::Parse(buffer.str(), out)) {
    // A damaged reference matches nothing, so the check fails loudly.
    *out = Fingerprint();
    out->scalars["unreadable_reference"] = 1;
  }
  return true;
}

bool LoadDigest(const Options& options, StoredDigest* out) {
  if (options.reference_dir.empty()) {
    return false;
  }
  std::ifstream in(options.reference_dir + "/digests.txt");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string workload;
    uint64_t seed = 0;
    std::string digest;
    if (!(fields >> workload >> seed >> digest) ||
        workload != options.workload || seed != options.seed) {
      continue;
    }
    out->digest = std::stoull(digest, nullptr, 16);
    std::string count;
    while (fields >> count) {
      const size_t eq = count.find('=');
      if (eq != std::string::npos) {
        out->counts[count.substr(0, eq)] = std::stoull(count.substr(eq + 1));
      }
    }
    return true;
  }
  return false;
}

void CheckDigest(const StoredDigest& stored, const Fingerprint& actual,
                 const std::string& what, WorkloadResult* result) {
  uint64_t outputs = 0;
  uint64_t count_diff = 0;
  for (const auto& [name, values] : actual.multisets) {
    outputs += values.size();
    auto it = stored.counts.find(name);
    const uint64_t want = it == stored.counts.end() ? 0 : it->second;
    count_diff += values.size() > want ? values.size() - want
                                       : want - values.size();
  }
  result->attempted += outputs;
  if (actual.Digest() != stored.digest) {
    result->failed += std::max<uint64_t>(1, count_diff);
    result->problems.push_back(what + ": outputs differ from the stored digest");
  }
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  out.close();
  return static_cast<bool>(out);
}

}  // namespace perfbench
