// Shared helpers for the experiment harness binaries (one per paper
// table/figure — see DESIGN.md §3). Not part of the public library API.
#ifndef DUST_BENCH_BENCH_UTIL_H_
#define DUST_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "datagen/base_tables.h"
#include "embed/tuple_encoder.h"
#include "la/vector_ops.h"
#include "serve/executor.h"
#include "util/rng.h"

namespace dust::bench {

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void PrintRow(const std::vector<std::string>& cells, int width = 14) {
  for (const std::string& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
}

inline std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return std::string(buf);
}

/// The process's pool for parallel bench sections (SearchBatch fan-out,
/// sharded scatter), one worker per hardware thread. Without an executor
/// the library runs every loop inline on the caller.
inline serve::Executor& BenchExecutor() {
  static serve::Executor executor(std::thread::hardware_concurrency());
  return executor;
}

/// Synthetic "unionable tuple" embedding cloud: a mixture of Gaussian
/// clusters on the unit sphere (used by the runtime experiments where only
/// the geometry matters, Fig. 7 / A.2.3).
inline std::vector<la::Vec> SyntheticTupleCloud(size_t n, size_t dim,
                                                size_t clusters,
                                                uint64_t seed) {
  Rng rng(seed);
  std::vector<la::Vec> centers;
  for (size_t c = 0; c < clusters; ++c) {
    la::Vec v(dim);
    for (float& x : v) x = static_cast<float>(rng.NextGaussian());
    la::NormalizeInPlace(&v);
    centers.push_back(v);
  }
  std::vector<la::Vec> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const la::Vec& center = centers[rng.NextBelow(clusters)];
    la::Vec v = center;
    for (float& x : v) x += 0.25f * static_cast<float>(rng.NextGaussian());
    la::NormalizeInPlace(&v);
    out.push_back(std::move(v));
  }
  return out;
}

/// Noiseless pretrained tuple encoder used by benches that do not train.
inline std::shared_ptr<embed::TupleEncoder> MakeBenchEncoder(size_t dim = 48) {
  embed::EmbedderConfig config;
  config.dim = dim;
  config.noise_level = 0.0f;
  return std::make_shared<embed::PretrainedTupleEncoder>(
      std::shared_ptr<embed::TextEmbedder>(
          embed::MakeEmbedder(embed::ModelFamily::kRoberta, config)));
}

/// Encodes every row of every unionable lake table of query q (serialized
/// with their own headers) plus the query rows; returns table provenance.
struct EncodedQueryWorkload {
  std::vector<la::Vec> query;
  std::vector<la::Vec> lake;
  std::vector<size_t> table_of;
};

inline EncodedQueryWorkload EncodeWorkload(const datagen::Benchmark& benchmark,
                                           size_t q,
                                           const embed::TupleEncoder& encoder) {
  EncodedQueryWorkload out;
  out.query = encoder.EncodeTableRows(benchmark.queries[q].data);
  for (size_t t : benchmark.unionable[q]) {
    std::vector<la::Vec> rows = encoder.EncodeTableRows(benchmark.lake[t].data);
    for (auto& r : rows) {
      out.lake.push_back(std::move(r));
      out.table_of.push_back(t);
    }
  }
  return out;
}

}  // namespace dust::bench

#endif  // DUST_BENCH_BENCH_UTIL_H_
