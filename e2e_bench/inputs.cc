#include "e2e_bench/inputs.h"

#include <algorithm>
#include <cmath>

#include "table/serialize.h"
#include "util/status.h"

namespace dust::e2e {

datagen::TusConfig LakeConfig(uint64_t seed) {
  datagen::TusConfig config;
  config.num_queries = 12;
  config.unionable_per_query = 16;
  config.base_rows = 300;
  config.seed = seed;
  return config;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // SplitMix64 finalizer over the pair, so nearby seeds and streams land
  // far apart.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<uint64_t> LakeSeeds(uint64_t seed, size_t count) {
  constexpr uint64_t kLakeStream = 2000;
  std::vector<uint64_t> seeds{seed};
  for (uint64_t i = 1; i < count; ++i) {
    seeds.push_back(SubSeed(seed, kLakeStream + i));
  }
  return seeds;
}

std::vector<const table::Table*> LakeTables(const datagen::Benchmark& lake) {
  std::vector<const table::Table*> tables;
  tables.reserve(lake.lake.size());
  for (const datagen::GeneratedTable& t : lake.lake) tables.push_back(&t.data);
  return tables;
}

std::string TableContent(const table::Table& t) {
  std::string content;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    content += table::SerializeTableRow(t, r);
    content += '\n';
  }
  return content;
}

QueryStream::QueryStream(const datagen::Benchmark& lake, uint64_t seed)
    : lake_(&lake), rng_(seed) {
  DUST_CHECK(!lake.queries.empty());
}

table::Table QueryStream::Next() {
  for (;;) {
    const table::Table& source =
        lake_->queries[rng_.NextBelow(lake_->queries.size())].data;
    DUST_CHECK(source.num_rows() >= kServedQueryRows);
    std::vector<size_t> rows =
        rng_.SampleWithoutReplacement(source.num_rows(), kServedQueryRows);
    table::Table query = source.SelectRows(rows);
    if (!seen_.insert(TableContent(query)).second) continue;
    query.set_name("served_query_" + std::to_string(issued_++));
    return query;
  }
}

std::vector<size_t> ZipfDraws(size_t n, double s, size_t count,
                              uint64_t seed) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (size_t rank = 0; rank < n; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), s);
    cdf[rank] = total;
  }
  Rng rng(seed);
  std::vector<size_t> draws(count);
  for (size_t& d : draws) {
    const double u = rng.NextDouble() * total;
    d = static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                            cdf.begin());
    d = std::min(d, n - 1);
  }
  return draws;
}

double RepeatShare(const std::vector<size_t>& ids) {
  if (ids.empty()) return 0.0;
  std::unordered_set<size_t> seen;
  size_t repeats = 0;
  for (size_t id : ids) repeats += seen.insert(id).second ? 0 : 1;
  return static_cast<double>(repeats) / static_cast<double>(ids.size());
}

}  // namespace dust::e2e
