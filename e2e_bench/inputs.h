// Seeded inputs of the end-to-end benchmark. Every workload runs on the
// same lake; the seed picks the lake, the query tables and the request
// draws, so one seed always yields the same inputs.
#ifndef DUST_E2E_BENCH_INPUTS_H_
#define DUST_E2E_BENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "datagen/tus_generator.h"
#include "table/table.h"
#include "util/rng.h"

namespace dust::e2e {

/// Rows of every served query table.
constexpr size_t kServedQueryRows = 8;

/// The lake every workload uses: 12 TUS queries, 16 unionable tables per
/// query, 300 base rows (192 tables, about 25k tuples).
datagen::TusConfig LakeConfig(uint64_t seed);

/// Seed of an independent input stream derived from the run's seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Seeds of `count` lakes for one run: the run's seed first, so a
/// one-lake workload uses the seed itself, then seeds derived from it.
std::vector<uint64_t> LakeSeeds(uint64_t seed, size_t count);

/// Lake table pointers in lake order.
std::vector<const table::Table*> LakeTables(const datagen::Benchmark& lake);

/// Serialization of every row of `t`, the content a served request is
/// identified by (the cache fingerprints the encoding of exactly these).
std::string TableContent(const table::Table& t);

/// An endless stream of pairwise-distinct served query tables: each one is
/// kServedQueryRows distinct rows of a TUS query table, both drawn from the
/// stream's seed. A draw whose content already appeared is redrawn.
class QueryStream {
 public:
  QueryStream(const datagen::Benchmark& lake, uint64_t seed);

  table::Table Next();

 private:
  const datagen::Benchmark* lake_;
  Rng rng_;
  uint64_t issued_ = 0;
  std::unordered_set<std::string> seen_;
};

/// Zipfian draws over ranks [0, n): P(rank) ~ 1 / (rank + 1)^s.
std::vector<size_t> ZipfDraws(size_t n, double s, size_t count,
                              uint64_t seed);

/// Share of `ids` whose value already appeared earlier in the sequence.
double RepeatShare(const std::vector<size_t>& ids);

}  // namespace dust::e2e

#endif  // DUST_E2E_BENCH_INPUTS_H_
