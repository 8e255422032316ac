// Self-tests of the benchmark's own helpers: seeded inputs are
// reproducible, and tail percentiles are refused when too few samples lie
// beyond them. Exits non-zero on the first failed check.
#include <algorithm>
#include <cstdio>
#include <unordered_set>
#include <vector>

#include "e2e_bench/inputs.h"
#include "e2e_bench/stats.h"

namespace dust::e2e {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<std::string> LakeContents(const datagen::Benchmark& b) {
  std::vector<std::string> out;
  for (const auto& t : b.lake) {
    out.push_back(t.data.name() + TableContent(t.data));
  }
  for (const auto& t : b.queries) {
    out.push_back(t.data.name() + TableContent(t.data));
  }
  return out;
}

std::vector<std::string> StreamContents(const datagen::Benchmark& b,
                                        uint64_t seed, size_t n) {
  QueryStream stream(b, seed);
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) out.push_back(TableContent(stream.Next()));
  return out;
}

void SameSeedSameInputs() {
  const datagen::Benchmark a = datagen::GenerateTus(LakeConfig(7));
  const datagen::Benchmark b = datagen::GenerateTus(LakeConfig(7));
  const datagen::Benchmark c = datagen::GenerateTus(LakeConfig(8));
  Expect(a.lake.size() == 192, "the lake has 12 x 16 tables");
  Expect(LakeContents(a) == LakeContents(b), "same seed, same lake");
  Expect(LakeContents(a) != LakeContents(c), "other seed, other lake");
  const std::vector<uint64_t> seeds = LakeSeeds(7, 4);
  Expect(seeds == LakeSeeds(7, 4) && seeds[0] == 7,
         "same seed, same lake seeds, led by the seed itself");
  Expect(std::unordered_set<uint64_t>(seeds.begin(), seeds.end()).size() == 4,
         "a run's lake seeds are distinct");

  const std::vector<std::string> pool = StreamContents(a, SubSeed(7, 1), 400);
  Expect(pool == StreamContents(b, SubSeed(7, 1), 400),
         "same seed, same query pool");
  Expect(pool != StreamContents(a, SubSeed(8, 1), 400),
         "other seed, other query pool");
  std::vector<size_t> ids(pool.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<size_t>(
        std::find(pool.begin(), pool.end(), pool[i]) - pool.begin());
  }
  Expect(RepeatShare(ids) == 0.0, "query stream tables are pairwise distinct");

  const std::vector<size_t> draws = ZipfDraws(400, 1.1, 8000, SubSeed(7, 9));
  Expect(draws == ZipfDraws(400, 1.1, 8000, SubSeed(7, 9)),
         "same seed, same draw sequence");
  Expect(draws != ZipfDraws(400, 1.1, 8000, SubSeed(8, 9)),
         "other seed, other draw sequence");
  const double share = RepeatShare(draws);
  Expect(share > 0.9 && share < 0.99, "zipfian draws mostly repeat");
}

void TailPercentileNeedsTenBeyond() {
  std::vector<double> samples(100);
  for (size_t i = 0; i < samples.size(); ++i) {
    samples[i] = static_cast<double>(i + 1);
  }
  Result<double> p90 = Percentile(samples, 0.90);
  Expect(p90.ok() && p90.value() == 90.0, "p90 of 100 samples has 10 beyond");
  Expect(!Percentile(samples, 0.99).ok(), "p99 of 100 samples is refused");
  samples.pop_back();
  Expect(!Percentile(samples, 0.90).ok(), "p90 of 99 samples is refused");
  samples.resize(1000);
  for (size_t i = 0; i < samples.size(); ++i) {
    samples[i] = static_cast<double>(i + 1);
  }
  Result<double> p99 = Percentile(samples, 0.99);
  Expect(p99.ok() && p99.value() == 990.0, "p99 of 1000 samples");
  Expect(!Percentile({}, 0.5).ok(), "no samples, no percentile");
  Expect(Median({3.0, 1.0, 2.0, 10.0}) == 2.5, "median of an even count");
}

void SelfTimesSubtractCoveredChildren() {
  // Parent [0, 100) with overlapping children [10, 40) and [30, 60):
  // 50 us covered once, so 50 us of self time.
  std::vector<obs::SpanRecord> spans(3);
  spans[0] = {1, 1, 0, "parent", 0, 100, 0, ""};
  spans[1] = {1, 2, 1, "child", 10, 30, 0, ""};
  spans[2] = {1, 3, 1, "child", 30, 30, 0, ""};
  SpanAggregate aggregate;
  aggregate.Add(spans);
  Expect(aggregate.MeanSelfMs("parent") == 0.05, "parent self time");
  Expect(aggregate.MeanSelfMs("child") == 0.03,
         "leaf self time is its duration");
  Expect(aggregate.MeanSelfMs("absent") == 0.0, "no spans, no time");
}

}  // namespace
}  // namespace dust::e2e

int main() {
  dust::e2e::SameSeedSameInputs();
  dust::e2e::TailPercentileNeedsTenBeyond();
  dust::e2e::SelfTimesSubtractCoveredChildren();
  if (dust::e2e::failures > 0) return 1;
  std::printf("e2e_bench selftest: all checks passed\n");
  return 0;
}
