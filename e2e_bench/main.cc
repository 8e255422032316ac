// e2e_bench — one benchmark for both end-to-end paths of DUST, driven from
// outside the library through its public calls.
//
//   algo1-tus    4 closed-loop clients run DustPipeline::Run, cycling
//                through the 12 TUS queries of each of 4 lakes: the
//                paper's Algorithm 1.
//   serve-zipf   4 closed-loop clients call QueryServer::Submit with
//                zipfian draws from 400 distinct 8-row query tables; the
//                working set fits the result cache.
//   serve-churn  4 closed-loop clients send only distinct 8-row queries;
//                every 25 requests they drain and one lake table is removed
//                and re-added.
//
// Usage: e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 reports end-to-end metrics. --trace 1 runs the workload twice
// for half the time each, untraced and then traced, and reports per-layer
// metrics: counts from the untraced half, span self times from the traced
// half. Every response is checked against a sequential reference; the last
// stdout line is the JSON result.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "align/holistic_aligner.h"
#include "align/tuple_builder.h"
#include "cluster/agglomerative.h"
#include "cluster/medoid.h"
#include "core/pipeline.h"
#include "diversify/dust_diversifier.h"
#include "e2e_bench/inputs.h"
#include "e2e_bench/stats.h"
#include "embed/column_embedder.h"
#include "embed/embedder.h"
#include "embed/tuple_encoder.h"
#include "obs/trace.h"
#include "search/embedding_search.h"
#include "search/tuple_search.h"
#include "serve/query_server.h"
#include "util/stopwatch.h"

namespace dust::e2e {
namespace {

// dust_cli's --k for both paths. Every workload runs one closed-loop client
// per core: on a shared 4-vCPU host one client's throughput moved by up to
// 35% between runs of the same seed, while four clients average the host's
// noise over every core.
constexpr size_t kK = 30;
constexpr size_t kClients = 4;
// Set-up is repeated and its median reported, so one slow repetition does
// not read as a regression.
constexpr size_t kSetupRepeats = 5;
// algo1-tus cycles through the queries of this many lakes of the same
// shape, each from its own seed. A query's cost follows its lake's random
// table sizes: over a single lake, qps and p50 moved by about 11% between
// seeds (IQR over median of ten seeds) on an idle host, before any host
// noise. Each run averages that over several lakes.
constexpr size_t kAlgo1Lakes = 4;
constexpr size_t kZipfPool = 400;
constexpr double kZipfS = 1.1;
// Requests per cold-cache episode. At 8000 draws about 95% of requests
// repeat an earlier query, so p90 lies inside the cache hits and p99 inside
// the misses instead of on the border between them.
constexpr size_t kZipfEpisode = 8000;
constexpr size_t kChurnEpoch = 25;
// Sampled share of traced serve-zipf requests. The global span collector
// holds 2048 spans per stripe and is only harvested between episodes; at
// this rate an episode records about 1000 spans, so even a single stripe
// never overflows. serve-churn is harvested every epoch and traces all.
constexpr double kZipfTraceRate = 0.05;
constexpr double kChurnTraceRate = 1.0;
// Input streams derived from the seed.
constexpr uint64_t kZipfPoolStream = 1;
constexpr uint64_t kChurnQueryStream = 2;
constexpr uint64_t kZipfDrawStream = 1000;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Work counted by the traced Algorithm 1, summed over queries.
struct WorkCounts {
  double unionable_tuples = 0;
  double tuples_encoded = 0;
  double prune_kept = 0;
  double matrix_pairs = 0;

  WorkCounts& operator+=(const WorkCounts& o) {
    unionable_tuples += o.unionable_tuples;
    tuples_encoded += o.tuples_encoded;
    prune_kept += o.prune_kept;
    matrix_pairs += o.matrix_pairs;
    return *this;
  }
};

/// Everything one measured phase of a workload records.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double seconds = 0.0;  // measured wall time
  std::vector<double> latencies_ms;
  // Summed QueryServer stats over the phase's servers.
  uint64_t served = 0;
  uint64_t batches = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_invalidations = 0;
  // Index work: query rows x live_size() over requests reaching the index.
  double distances = 0;
  uint64_t index_requests = 0;
  std::vector<double> tombstone_shares;  // one per churn epoch
  // Requests whose query appeared earlier in the same server's lifetime.
  double repeated = 0;
  uint64_t requests = 0;
  std::vector<double> remove_ms;
  std::vector<double> add_ms;
  std::vector<double> mutation_ms;
  // Traced phase only.
  SpanAggregate spans;
  uint64_t spans_dropped = 0;
  WorkCounts work;

  double qps() const {
    return seconds > 0.0 ? static_cast<double>(requests) / seconds : 0.0;
  }
};

std::shared_ptr<embed::TupleEncoder> MakeTupleEncoder() {
  embed::EmbedderConfig config;
  config.dim = 64;
  return std::make_shared<embed::PretrainedTupleEncoder>(
      std::shared_ptr<embed::TextEmbedder>(
          embed::MakeEmbedder(embed::ModelFamily::kRoberta, config)));
}

core::PipelineConfig PipelineDefaults() {
  core::PipelineConfig config;  // flat index, starmie engine
  config.num_tables = 10;
  config.diversifier.p = 2;
  config.diversifier.prune_s = 2500;
  return config;
}

serve::QueryServerOptions ServerOptions(double trace_sample_rate) {
  serve::QueryServerOptions options;
  options.threads = 4;
  options.queue_capacity = 256;
  options.max_batch = 32;
  options.batch_window_us = 2000;
  options.cache_entries = core::ServingConfig{}.cache_entries;
  options.cache_bytes = core::ServingConfig{}.cache_bytes;
  options.trace_sample_rate = trace_sample_rate;
  return options;
}

/// kClients threads each keep one request in flight until request(i) has
/// run for every i < count.
void ClosedLoop(size_t count, const std::function<void(size_t)>& request) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        request(i);
      }
    });
  }
  for (std::thread& t : clients) t.join();
}

/// Generates one lake per seed and indexes each, in seed order, `repeats`
/// times; returns the median wall time and leaves the last set in *lakes.
/// `drop` releases what `index` built, so no repetition overlaps the
/// previous one in memory.
double TimedSetup(
    const std::vector<uint64_t>& seeds, size_t repeats,
    const std::function<void()>& drop,
    const std::function<void(const std::vector<const table::Table*>&)>& index,
    std::vector<datagen::Benchmark>* lakes) {
  std::vector<double> seconds;
  for (size_t r = 0; r < repeats; ++r) {
    drop();
    lakes->clear();
    lakes->reserve(seeds.size());  // index() keeps pointers into each lake
    Stopwatch watch;
    for (uint64_t seed : seeds) {
      lakes->push_back(datagen::GenerateTus(LakeConfig(seed)));
      index(LakeTables(lakes->back()));
    }
    seconds.push_back(watch.Seconds());
  }
  return Median(seconds);
}

// --- algo1-tus --------------------------------------------------------------

bool SameOutput(const core::PipelineResult& got,
                const core::PipelineResult& want) {
  if (got.provenance.size() != want.provenance.size()) return false;
  for (size_t i = 0; i < got.provenance.size(); ++i) {
    if (!(got.provenance[i] == want.provenance[i])) return false;
  }
  const table::Table& a = got.output;
  const table::Table& b = want.output;
  if (a.ColumnNames() != b.ColumnNames() || a.num_rows() != b.num_rows()) {
    return false;
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    if (a.column(c).values != b.column(c).values) return false;
  }
  return true;
}

/// Algorithm 1 rebuilt from the public calls DustPipeline::Run makes, in
/// the same order and with the same arguments, with a benchmark-side span
/// around each call. Its output must equal DustPipeline::Run's, or its
/// breakdown describes a different program.
class TracedAlgorithm1 {
 public:
  TracedAlgorithm1(core::PipelineConfig config,
                   std::shared_ptr<embed::TupleEncoder> encoder,
                   std::vector<const table::Table*> lake,
                   obs::SpanCollector* collector)
      : config_(std::move(config)),
        encoder_(std::move(encoder)),
        search_(SearchConfigOf(config_)),
        lake_(std::move(lake)),
        collector_(collector) {
    search_.IndexLake(lake_);
  }

  Result<core::PipelineResult> Run(const table::Table& query, size_t k,
                                   WorkCounts* counts) const {
    obs::ScopedTraceContext trace({obs::NewTraceId(), 0, true});
    obs::Span root("algorithm1", collector_);
    core::PipelineResult result;
    result.tables = Traced("search.search_tables", [&] {
      return search_.SearchTables(query, config_.num_tables);
    });
    if (result.tables.empty()) {
      return Status::NotFound("no unionable tables found");
    }
    while (result.tables.size() > 1 &&
           result.tables.back().score < config_.min_table_score) {
      result.tables.pop_back();
    }
    std::vector<const table::Table*> retrieved;
    for (const search::TableHit& hit : result.tables) {
      retrieved.push_back(lake_[hit.table_index]);
    }
    std::vector<const table::Table*> all_tables{&query};
    all_tables.insert(all_tables.end(), retrieved.begin(), retrieved.end());
    const std::vector<std::vector<la::Vec>> column_embeddings =
        Traced("align.column_embed", [&] {
          embed::ColumnEmbedder column_embedder(
              embed::MakeEmbedder(
                  config_.column_model,
                  embed::DefaultConfigFor(config_.column_model,
                                          config_.embedding_dim, config_.seed)),
              config_.column_serialization);
          return column_embedder.EmbedTables(all_tables);
        });
    result.alignment = Traced("align.align", [&] {
      return align::HolisticAligner(config_.aligner)
          .Align(query, retrieved, column_embeddings);
    });
    Result<align::UnionableTuples> tuples = Traced("align.build_tuples", [&] {
      return align::BuildUnionableTuples(query, retrieved, result.alignment);
    });
    if (!tuples.ok()) return tuples.status();
    const align::UnionableTuples& unionable = tuples.value();
    if (unionable.unioned.num_rows() == 0) {
      return Status::NotFound("alignment produced no unionable tuples");
    }
    counts->unionable_tuples +=
        static_cast<double>(unionable.unioned.num_rows());

    std::vector<la::Vec> lake_embeddings;
    std::vector<la::Vec> query_embeddings;
    Traced("embed.tuple_encode", [&] {
      for (const std::string& ser : unionable.serialized) {
        lake_embeddings.push_back(encoder_->EncodeSerialized(ser));
      }
      for (const std::string& ser : unionable.query_serialized) {
        query_embeddings.push_back(encoder_->EncodeSerialized(ser));
      }
    });
    counts->tuples_encoded +=
        static_cast<double>(lake_embeddings.size() + query_embeddings.size());

    std::vector<size_t> table_of(unionable.provenance.size());
    for (size_t i = 0; i < unionable.provenance.size(); ++i) {
      table_of[i] = unionable.provenance[i].table_index;
    }
    diversify::DiversifyInput input;
    input.query = &query_embeddings;
    input.lake = &lake_embeddings;
    input.metric = config_.metric;
    input.table_of = &table_of;
    const std::vector<size_t> selected = SelectDiverse(input, k, counts);

    result.output = unionable.unioned.SelectRows(selected);
    result.output.set_name("dust_output");
    for (size_t i : selected) {
      table::TupleRef ref = unionable.provenance[i];
      ref.table_index = result.tables[ref.table_index].table_index;
      result.provenance.push_back(ref);
    }
    return result;
  }

 private:
  static search::EmbeddingSearchConfig SearchConfigOf(
      const core::PipelineConfig& config) {
    DUST_CHECK(config.engine == "starmie" && config.search_shortlist == 0 &&
               config.EffectiveSearchIndex() == "flat");
    search::EmbeddingSearchConfig search;
    search.encoder.dim = config.embedding_dim;
    search.encoder.seed = config.seed;
    search.index_type = "flat";
    search.cascade = config.cascade;
    return search;
  }

  template <typename F>
  auto Traced(const char* name, F&& f) const -> decltype(f()) {
    obs::Span span(name, collector_);
    return f();
  }

  /// DustDiversifier::SelectDiverse, one span per step.
  std::vector<size_t> SelectDiverse(const diversify::DiversifyInput& input,
                                    size_t k, WorkCounts* counts) const {
    const std::vector<la::Vec>& lake = *input.lake;
    if (lake.empty() || k == 0) return {};
    k = std::min(k, lake.size());
    const diversify::DustDiversifierConfig& config = config_.diversifier;
    diversify::DustDiversifier diversifier(config);
    std::vector<size_t> kept;
    if (config.enable_pruning) {
      kept = Traced("diversify.prune", [&] {
        return diversifier.PruneTuples(input, std::max(config.prune_s, k));
      });
    } else {
      kept.resize(lake.size());
      std::iota(kept.begin(), kept.end(), 0);
    }
    counts->prune_kept += static_cast<double>(kept.size());

    std::vector<size_t> candidates;
    const size_t num_clusters =
        std::min(kept.size(), k * std::max<size_t>(1, config.p));
    if (kept.size() <= num_clusters) {
      candidates = kept;
    } else {
      // The gather of the kept points is charged to the matrix build.
      const la::DistanceMatrix distances = Traced("la.distance_matrix", [&] {
        std::vector<la::Vec> pruned_points;
        pruned_points.reserve(kept.size());
        for (size_t i : kept) pruned_points.push_back(lake[i]);
        return la::DistanceMatrix(pruned_points, input.metric);
      });
      counts->matrix_pairs +=
          static_cast<double>(kept.size() * (kept.size() - 1) / 2);
      const cluster::Dendrogram dendrogram =
          Traced("cluster.agglomerative", [&] {
            return cluster::AgglomerativeCluster(distances, config.linkage);
          });
      candidates = Traced("cluster.cut_medoid", [&] {
        std::vector<size_t> medoids;
        const std::vector<size_t> labels =
            cluster::CutDendrogram(dendrogram, num_clusters);
        for (const auto& members : cluster::GroupByLabel(labels)) {
          if (members.empty()) continue;
          medoids.push_back(kept[cluster::MedoidOf(members, distances)]);
        }
        return medoids;
      });
    }
    return Traced("diversify.rerank", [&] {
      std::vector<size_t> ranked =
          diversify::RankCandidatesAgainstQuery(input, candidates);
      if (ranked.size() > k) ranked.resize(k);
      return ranked;
    });
  }

  core::PipelineConfig config_;
  std::shared_ptr<embed::TupleEncoder> encoder_;
  search::EmbeddingUnionSearch search_;
  std::vector<const table::Table*> lake_;
  obs::SpanCollector* collector_;
};

/// kClients closed-loop clients run Algorithm 1 over the refs.size()
/// queries, round-robin, for `seconds`. run(q, client) answers query q,
/// which must equal refs[q]; after_each(client) follows every answer,
/// outside its latency.
void Algorithm1Loop(
    const std::vector<core::PipelineResult>& refs, double seconds,
    const std::function<Result<core::PipelineResult>(size_t, size_t)>& run,
    const std::function<void(size_t)>& after_each, Tally* tally) {
  std::vector<std::vector<double>> latencies(kClients);
  std::vector<uint64_t> failed(kClients, 0);
  std::atomic<size_t> next{0};
  Stopwatch phase;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      while (phase.Seconds() < seconds) {
        const size_t q = next.fetch_add(1) % refs.size();
        Stopwatch watch;
        Result<core::PipelineResult> result = run(q, c);
        latencies[c].push_back(watch.Millis());
        if (!result.ok() || !SameOutput(result.value(), refs[q])) ++failed[c];
        after_each(c);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  tally->seconds = phase.Seconds();
  for (size_t c = 0; c < kClients; ++c) {
    tally->latencies_ms.insert(tally->latencies_ms.end(),
                               latencies[c].begin(), latencies[c].end());
    tally->attempted += latencies[c].size();
    tally->requests += latencies[c].size();
    tally->failed += failed[c];
  }
}

// --- serve-* ----------------------------------------------------------------

/// A served hit as the reference comparison sees it: by table name, so a
/// table re-added under a new table_index still compares equal.
struct HitKey {
  std::string table;
  size_t row = 0;
  double similarity = 0.0;
  bool operator==(const HitKey& o) const {
    return table == o.table && row == o.row && similarity == o.similarity;
  }
};

std::optional<std::vector<HitKey>> KeysOf(
    const search::TupleSearch& search,
    const serve::QueryServer::TupleResult& result) {
  if (!result.ok()) return std::nullopt;
  std::vector<HitKey> keys;
  for (const search::TupleHit& hit : result.value()) {
    keys.push_back({search.table_name(hit.ref.table_index), hit.ref.row_index,
                    hit.similarity});
  }
  return keys;
}

/// True when `got` equals the sequential SearchTuplesChecked answer for
/// `query` and no hit comes from a table that is removed right now.
bool MatchesReference(const search::TupleSearch& search,
                      const table::Table& query,
                      const serve::QueryServer::TupleResult& got) {
  if (!got.ok()) return false;
  for (const search::TupleHit& hit : got.value()) {
    if (search.table_removed(hit.ref.table_index)) return false;
  }
  const std::optional<std::vector<HitKey>> want =
      KeysOf(search, search.SearchTuplesChecked(query, kK));
  return want.has_value() && KeysOf(search, got) == want;
}

void AddServerStats(const serve::QueryServerStats& stats, Tally* tally) {
  tally->served += stats.served;
  tally->batches += stats.batches;
  tally->cache_hits += stats.cache_hits;
  tally->cache_misses += stats.cache_misses;
  tally->cache_invalidations += stats.cache_invalidations;
}

/// Moves the global collector's spans into the tally. Only called while no
/// request is in flight, so no span is recorded between read and clear.
void HarvestSpans(Tally* tally) {
  obs::SpanCollector& collector = obs::SpanCollector::Global();
  tally->spans_dropped += collector.dropped_total();
  tally->spans.Add(collector.Snapshot());
  collector.Clear();
}

/// Closed loop over `queries` through `server`; results and latencies land
/// in the per-request slots.
void ServeClosedLoop(
    serve::QueryServer* server, const std::vector<const table::Table*>& queries,
    std::vector<std::optional<serve::QueryServer::TupleResult>>* results,
    Tally* tally) {
  results->assign(queries.size(), std::nullopt);
  std::vector<double> latencies(queries.size());
  Stopwatch watch;
  ClosedLoop(queries.size(), [&](size_t i) {
    Stopwatch request;
    (*results)[i] = server->Submit(*queries[i], kK).get();
    latencies[i] = request.Millis();
  });
  tally->seconds += watch.Seconds();
  tally->latencies_ms.insert(tally->latencies_ms.end(), latencies.begin(),
                             latencies.end());
  tally->attempted += queries.size();
  tally->requests += queries.size();
}

/// serve-zipf: whole cold-cache episodes of kZipfEpisode zipfian requests
/// until `seconds` of traffic have been measured.
void ZipfPhase(const search::TupleSearch& search,
               const std::vector<table::Table>& pool,
               const std::vector<std::optional<std::vector<HitKey>>>& refs,
               uint64_t seed, double seconds, double trace_rate, Tally* tally) {
  for (uint64_t episode = 0; tally->seconds < seconds; ++episode) {
    const std::vector<size_t> draws =
        ZipfDraws(pool.size(), kZipfS, kZipfEpisode,
                  SubSeed(seed, kZipfDrawStream + episode));
    tally->repeated += RepeatShare(draws) * static_cast<double>(draws.size());
    std::vector<const table::Table*> queries;
    for (size_t d : draws) queries.push_back(&pool[d]);
    std::vector<std::optional<serve::QueryServer::TupleResult>> results;
    {
      serve::QueryServer server(&search, ServerOptions(trace_rate));
      ServeClosedLoop(&server, queries, &results, tally);
      server.Shutdown();
      AddServerStats(server.stats(), tally);
      tally->index_requests += server.stats().served;
      tally->distances += static_cast<double>(server.stats().served) *
                          kServedQueryRows *
                          static_cast<double>(search.lake_live_vectors());
    }
    if (trace_rate > 0.0) HarvestSpans(tally);
    for (size_t i = 0; i < draws.size(); ++i) {
      const std::optional<std::vector<HitKey>>& want = refs[draws[i]];
      if (!want.has_value() || KeysOf(search, *results[i]) != want) {
        ++tally->failed;
      }
    }
  }
}

/// serve-churn: epochs of kChurnEpoch distinct requests; after each, the
/// clients have drained, the answers are checked against the lake state
/// they were served on, and one rotating lake table is replaced by
/// RemoveTable + AddTable of an identical copy.
void ChurnPhase(search::TupleSearch* search,
                const std::vector<const table::Table*>& lake_tables,
                QueryStream* stream, double seconds, double trace_rate,
                Tally* tally) {
  serve::QueryServer server(search, ServerOptions(trace_rate));
  for (size_t epoch = 0; tally->seconds < seconds; ++epoch) {
    std::vector<table::Table> epoch_queries;
    std::vector<const table::Table*> queries;
    for (size_t i = 0; i < kChurnEpoch; ++i) {
      epoch_queries.push_back(stream->Next());
    }
    for (const table::Table& q : epoch_queries) queries.push_back(&q);
    const double live = static_cast<double>(search->lake_live_vectors());
    const double dead = static_cast<double>(search->lake_tombstoned_vectors());
    tally->tombstone_shares.push_back(dead / (live + dead));

    std::vector<std::optional<serve::QueryServer::TupleResult>> results;
    ServeClosedLoop(&server, queries, &results, tally);
    if (trace_rate > 0.0) HarvestSpans(tally);
    tally->index_requests += queries.size();
    tally->distances +=
        static_cast<double>(queries.size()) * kServedQueryRows * live;
    // The reference answers are computed by kClients threads, between
    // epochs and outside the measured time.
    std::atomic<uint64_t> mismatches{0};
    ClosedLoop(queries.size(), [&](size_t i) {
      if (!MatchesReference(*search, *queries[i], *results[i])) ++mismatches;
    });
    tally->failed += mismatches.load();

    const table::Table& victim = *lake_tables[epoch % lake_tables.size()];
    Stopwatch watch;
    const Status removed = search->RemoveTable(victim.name());
    const double remove_ms = watch.Millis();
    watch.Restart();
    const Status added = removed.ok() ? search->AddTable(victim) : removed;
    const double add_ms = watch.Millis();
    tally->seconds += (remove_ms + add_ms) / 1e3;
    tally->remove_ms.push_back(remove_ms);
    tally->add_ms.push_back(add_ms);
    tally->mutation_ms.push_back(remove_ms + add_ms);
    ++tally->attempted;
    if (!added.ok()) {
      std::fprintf(stderr, "lake mutation failed: %s\n",
                   added.ToString().c_str());
      ++tally->failed;
    }
  }
  server.Shutdown();
  AddServerStats(server.stats(), tally);
}

// --- reporting --------------------------------------------------------------

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// End-to-end metrics of an untraced phase. Returns false when a tail
/// percentile the contract needs is not supported by the sample count.
bool EndToEndMetrics(const Tally& t, double setup_s,
                     std::vector<Metric>* metrics) {
  Result<double> p90 = Percentile(t.latencies_ms, 0.90);
  if (!p90.ok()) {
    std::fprintf(stderr, "refusing p90_ms: %s\n",
                 p90.status().ToString().c_str());
    return false;
  }
  *metrics = {{"setup_s", setup_s, "s"},
              {"qps", t.qps(), "1/s"},
              {"p50_ms", Median(t.latencies_ms), "ms"},
              {"p90_ms", p90.value(), "ms"},
              {"peak_rss_mb", PeakRssMb(), "MiB"}};
  return true;
}

/// Per-layer metrics: counts from the untraced phase `a`, span self times
/// and benchmark-side call timings from the traced phase `b`.
std::vector<Metric> PerLayerMetrics(const Tally& a, const Tally& b) {
  const double traced = static_cast<double>(b.requests);
  return {
      {"serve.queue_wait_ms", b.spans.MeanSelfMs("queue_wait"), "ms"},
      {"serve.batch_size", Ratio(a.served, a.batches), "count"},
      {"serve.cache_hit_rate",
       Ratio(a.cache_hits, a.cache_hits + a.cache_misses), "ratio"},
      {"serve.cache_probe_ms", b.spans.MeanSelfMs("cache_probe"), "ms"},
      {"serve.cache_invalidations", static_cast<double>(a.cache_invalidations),
       "count"},
      {"search.encode_ms", b.spans.MeanSelfMs("encode"), "ms"},
      {"search.fuse_ms", b.spans.MeanSelfMs("fuse"), "ms"},
      {"search.search_tables_ms", b.spans.MeanSelfMs("search.search_tables"),
       "ms"},
      {"search.remove_table_ms", Mean(b.remove_ms), "ms"},
      {"search.add_table_ms", Mean(b.add_ms), "ms"},
      {"index.search_batch_ms", b.spans.MeanSelfMs("index_search"), "ms"},
      {"index.distances_per_request", Ratio(a.distances, a.index_requests),
       "count"},
      {"index.tombstone_share", Mean(a.tombstone_shares), "ratio"},
      {"la.distance_matrix_ms", b.spans.MeanSelfMs("la.distance_matrix"),
       "ms"},
      {"la.matrix_pairs", Ratio(b.work.matrix_pairs, traced), "count"},
      {"cluster.agglomerative_ms",
       b.spans.MeanSelfMs("cluster.agglomerative"), "ms"},
      {"cluster.cut_medoid_ms", b.spans.MeanSelfMs("cluster.cut_medoid"),
       "ms"},
      {"diversify.prune_ms", b.spans.MeanSelfMs("diversify.prune"), "ms"},
      {"diversify.prune_kept", Ratio(b.work.prune_kept, traced), "count"},
      {"diversify.rerank_ms", b.spans.MeanSelfMs("diversify.rerank"), "ms"},
      {"align.column_embed_ms", b.spans.MeanSelfMs("align.column_embed"),
       "ms"},
      {"align.align_ms", b.spans.MeanSelfMs("align.align"), "ms"},
      {"align.build_tuples_ms", b.spans.MeanSelfMs("align.build_tuples"),
       "ms"},
      {"align.unionable_tuples", Ratio(b.work.unionable_tuples, traced),
       "count"},
      {"embed.tuple_encode_ms", b.spans.MeanSelfMs("embed.tuple_encode"),
       "ms"},
      {"embed.tuples_encoded", Ratio(b.work.tuples_encoded, traced), "count"},
      {"obs.trace_overhead", Ratio(b.qps(), a.qps()), "ratio"},
      {"obs.spans_dropped", static_cast<double>(b.spans_dropped), "count"},
      {"workload.repeat_share", Ratio(a.repeated, a.requests), "ratio"},
      {"workload.mutations", static_cast<double>(a.mutation_ms.size()),
       "count"},
  };
}

/// Human-readable lines ahead of the JSON result: every metric by name and
/// unit, including the tails and mutation latency that only some workloads
/// support.
void PrintReport(const Options& options, const Tally& t, uint64_t attempted,
                 uint64_t failed, const std::vector<Metric>& metrics) {
  std::printf("workload %s  seed %llu  trace %d  measured %.3f s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, t.seconds);
  std::printf("  %-30s %llu attempted, %llu failed (%zu latency samples)\n",
              "operations", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), t.latencies_ms.size());
  for (const Metric& m : metrics) {
    std::printf("  %-30s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  Result<double> p99 = Percentile(t.latencies_ms, 0.99);
  if (p99.ok()) {
    std::printf("  %-30s %.6g ms\n", "p99_ms", p99.value());
  } else {
    std::printf("  %-30s refused: %s\n", "p99_ms",
                p99.status().message().c_str());
  }
  if (!t.mutation_ms.empty()) {
    std::printf("  %-30s %.6g ms (%zu remove+add pairs)\n", "mutation_p50_ms",
                Median(t.mutation_ms), t.mutation_ms.size());
  }
}

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 &&
         (options->workload == "algo1-tus" ||
          options->workload == "serve-zipf" ||
          options->workload == "serve-churn");
}

/// Runs the workload; fills the untraced phase `a` (the whole run without
/// --trace) and, with --trace, the traced phase `b`. Returns set-up time.
double RunWorkload(const Options& options, Tally* a, Tally* b) {
  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  const size_t setup_repeats = options.trace ? 1 : kSetupRepeats;
  std::shared_ptr<embed::TupleEncoder> encoder = MakeTupleEncoder();
  std::vector<datagen::Benchmark> lakes;

  if (options.workload == "algo1-tus") {
    // One pipeline per lake, each indexing only its own lake.
    std::vector<std::unique_ptr<core::DustPipeline>> pipelines;
    const double setup_s = TimedSetup(
        LakeSeeds(options.seed, kAlgo1Lakes), setup_repeats,
        [&] { pipelines.clear(); },
        [&](const std::vector<const table::Table*>& tables) {
          pipelines.push_back(std::make_unique<core::DustPipeline>(
              PipelineDefaults(), encoder));
          pipelines.back()->IndexLake(tables);
        },
        &lakes);
    // The run's cycle: every query of lake 0, then of lake 1, and so on.
    std::vector<const table::Table*> queries;
    std::vector<size_t> lake_of;
    for (size_t l = 0; l < lakes.size(); ++l) {
      for (const datagen::GeneratedTable& q : lakes[l].queries) {
        queries.push_back(&q.data);
        lake_of.push_back(l);
      }
    }
    std::vector<core::PipelineResult> refs(queries.size());
    ClosedLoop(queries.size(), [&](size_t q) {
      refs[q] = pipelines[lake_of[q]]->Run(*queries[q], kK).ValueOrDie();
    });
    Algorithm1Loop(
        refs, phase_s,
        [&](size_t q, size_t) {
          return pipelines[lake_of[q]]->Run(*queries[q], kK);
        },
        [](size_t) {}, a);
    if (options.trace) {
      // One rebuilt pipeline per lake, one span collector and work tally
      // per client, so a client harvests its spans after each query
      // without racing.
      std::vector<std::unique_ptr<obs::SpanCollector>> collectors;
      // traced[c][l]: client c's rebuilt pipeline over lake l.
      std::vector<std::vector<std::unique_ptr<TracedAlgorithm1>>> traced(
          kClients);
      std::vector<WorkCounts> work(kClients);
      std::vector<std::vector<obs::SpanRecord>> records(kClients);
      std::vector<uint64_t> dropped(kClients, 0);
      for (size_t c = 0; c < kClients; ++c) {
        collectors.push_back(std::make_unique<obs::SpanCollector>(4096, 1));
        for (const datagen::Benchmark& lake : lakes) {
          traced[c].push_back(std::make_unique<TracedAlgorithm1>(
              PipelineDefaults(), encoder, LakeTables(lake),
              collectors.back().get()));
        }
      }
      Algorithm1Loop(
          refs, phase_s,
          [&](size_t q, size_t c) {
            return traced[c][lake_of[q]]->Run(*queries[q], kK, &work[c]);
          },
          [&](size_t c) {
            std::vector<obs::SpanRecord> spans = collectors[c]->Snapshot();
            records[c].insert(records[c].end(), spans.begin(), spans.end());
            dropped[c] += collectors[c]->dropped_total();
            collectors[c]->Clear();
          },
          b);
      std::vector<obs::SpanRecord> all;
      for (size_t c = 0; c < kClients; ++c) {
        all.insert(all.end(), records[c].begin(), records[c].end());
        b->spans_dropped += dropped[c];
        b->work += work[c];
      }
      b->spans.Add(all);
    }
    return setup_s;
  }

  std::unique_ptr<search::TupleSearch> search;
  const double setup_s = TimedSetup(
      {options.seed}, setup_repeats, [&] { search.reset(); },
      [&](const std::vector<const table::Table*>& tables) {
        search = std::make_unique<search::TupleSearch>(encoder);
        search->IndexLake(tables);
      },
      &lakes);
  const datagen::Benchmark& lake = lakes.front();
  const std::vector<const table::Table*> tables = LakeTables(lake);

  if (options.workload == "serve-zipf") {
    QueryStream stream(lake, SubSeed(options.seed, kZipfPoolStream));
    std::vector<table::Table> pool;
    for (size_t i = 0; i < kZipfPool; ++i) pool.push_back(stream.Next());
    std::vector<std::optional<std::vector<HitKey>>> refs(pool.size());
    ClosedLoop(pool.size(), [&](size_t i) {
      refs[i] = KeysOf(*search, search->SearchTuplesChecked(pool[i], kK));
    });
    ZipfPhase(*search, pool, refs, options.seed, phase_s, 0.0, a);
    if (options.trace) {
      ZipfPhase(*search, pool, refs, options.seed, phase_s, kZipfTraceRate, b);
    }
    return setup_s;
  }

  QueryStream stream(lake, SubSeed(options.seed, kChurnQueryStream));
  ChurnPhase(search.get(), tables, &stream, phase_s, 0.0, a);
  if (options.trace) {
    // The traced half starts from the same unmutated lake and queries.
    search->IndexLake(tables);
    QueryStream replay(lake, SubSeed(options.seed, kChurnQueryStream));
    ChurnPhase(search.get(), tables, &replay, phase_s, kChurnTraceRate, b);
  }
  return setup_s;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload algo1-tus|serve-zipf|serve-churn "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  Tally a;
  Tally b;
  const double setup_s = RunWorkload(options, &a, &b);
  const uint64_t attempted = a.attempted + b.attempted;
  const uint64_t failed = a.failed + b.failed;
  std::vector<Metric> metrics;
  if (options.trace) {
    metrics = PerLayerMetrics(a, b);
  } else if (!EndToEndMetrics(a, setup_s, &metrics)) {
    return 3;
  }
  PrintReport(options, a, attempted, failed, metrics);
  if (b.spans_dropped > 0) {
    std::fprintf(stderr, "the traced run dropped %llu spans\n",
                 static_cast<unsigned long long>(b.spans_dropped));
  }
  const bool correct = failed == 0 && b.spans_dropped == 0;
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace dust::e2e

int main(int argc, char** argv) { return dust::e2e::Main(argc, argv); }
