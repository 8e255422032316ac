// Measurement helpers of the end-to-end benchmark: percentiles that refuse
// unsupported tails, span self-time aggregation, peak memory, and the
// one-line JSON result.
#ifndef DUST_E2E_BENCH_STATS_H_
#define DUST_E2E_BENCH_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/status.h"

namespace dust::e2e {

/// A tail percentile is reported only when at least this many samples lie
/// beyond it.
constexpr size_t kMinSamplesBeyondTail = 10;

/// Nearest-rank `q`-quantile (0 < q < 1) of `samples`. InvalidArgument when
/// fewer than kMinSamplesBeyondTail samples rank above it: such a tail is a
/// handful of outliers, not a percentile.
Result<double> Percentile(std::vector<double> samples, double q);

double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// Per-name self times of recorded spans. A span's self time is its
/// duration minus the part of its interval covered by its children
/// (overlapping children, e.g. ParallelFor members, are counted once).
class SpanAggregate {
 public:
  /// Adds every record of one quiescent batch of spans: all children of a
  /// span must be in the same call as the span itself.
  void Add(const std::vector<obs::SpanRecord>& records);

  /// Mean self time in ms of spans named `name`; 0 when none was recorded.
  double MeanSelfMs(const std::string& name) const;

 private:
  struct Totals {
    uint64_t count = 0;
    double self_ms = 0.0;
  };
  std::map<std::string, Totals> totals_;
};

/// Peak resident set size of this process in MiB (getrusage ru_maxrss).
double PeakRssMb();

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's last output line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace dust::e2e

#endif  // DUST_E2E_BENCH_STATS_H_
