#include "e2e_bench/stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace dust::e2e {

Result<double> Percentile(std::vector<double> samples, double q) {
  if (!(q > 0.0 && q < 1.0)) {
    return Status::InvalidArgument("percentile outside (0, 1)");
  }
  const size_t n = samples.size();
  // Nearest rank, 1-based: the smallest sample with at least q*n samples at
  // or below it.
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0 || n - rank < kMinSamplesBeyondTail) {
    char message[128];
    std::snprintf(message, sizeof(message),
                  "p%g of %zu samples has fewer than %zu samples beyond it",
                  q * 100.0, n, kMinSamplesBeyondTail);
    return Status::InvalidArgument(message);
  }
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

void SpanAggregate::Add(const std::vector<obs::SpanRecord>& records) {
  // Child intervals per parent span id.
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const obs::SpanRecord& r : records) {
    if (r.parent_span_id == 0) continue;
    children[r.parent_span_id].push_back(
        {r.start_us, r.start_us + r.duration_us});
  }
  for (const obs::SpanRecord& r : records) {
    const int64_t begin = r.start_us;
    const int64_t end = r.start_us + r.duration_us;
    int64_t covered = 0;
    auto it = children.find(r.span_id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>>& spans = it->second;
      std::sort(spans.begin(), spans.end());
      int64_t reach = begin;
      for (const auto& [child_begin, child_end] : spans) {
        const int64_t from = std::max(child_begin, reach);
        const int64_t to = std::min(child_end, end);
        if (to > from) {
          covered += to - from;
          reach = to;
        }
      }
    }
    Totals& totals = totals_[r.name];
    ++totals.count;
    totals.self_ms += static_cast<double>(r.duration_us - covered) / 1e3;
  }
}

double SpanAggregate::MeanSelfMs(const std::string& name) const {
  auto it = totals_.find(name);
  if (it == totals_.end() || it->second.count == 0) return 0.0;
  return it->second.self_ms / static_cast<double>(it->second.count);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace dust::e2e
