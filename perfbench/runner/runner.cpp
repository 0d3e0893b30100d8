// perfbench_runner: runs one benchmark workload in-process against the
// normalize library and prints its raw samples as one JSON line (see
// record.hpp); perfbench/run.py builds this binary, runs it, and reduces the
// samples to metrics.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --tmp <dir>
//
// Workloads (all on 2 worker threads, one process, one client):
//   normalize_tpch     Normalizer::Normalize on the TPC-H-like universal
//                      relation (HyFD, max_lhs 2).
//   renormalize_horse  Normalizer::RenormalizeWithCover on Horse-like data
//                      with its complete minimal cover, discovered in set-up.
//   serve_churn        ServiceCore fed a NURand update stream, one client in
//                      a closed loop, a Schema() read after every 8th batch.
//   ingest_sharded     Normalizer::NormalizeCsvFile with 4 shards and a
//                      1 MiB ingest budget.
//
// Every run does a fixed number of ops derived from --seconds, never a fixed
// duration, so two commits do identical work. Output checks run outside the
// timed regions. With --trace 1 the workload's op is split into calls to the
// layers' public functions, each wrapped in a benchmark-side span, and the
// layers the op does not reach are probed on the same input.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "closure/closure.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "datagen/datasets.hpp"
#include "datagen/tpch_like.hpp"
#include "datagen/update_stream.hpp"
#include "discovery/fd_discovery.hpp"
#include "live/delta_fd_maintainer.hpp"
#include "live/live_relation.hpp"
#include "normalize/decomposition.hpp"
#include "normalize/key_derivation.hpp"
#include "normalize/normalizer.hpp"
#include "normalize/scoring.hpp"
#include "normalize/violation_detection.hpp"
#include "record.hpp"
#include "relation/csv.hpp"
#include "service/service_core.hpp"
#include "service/wal.hpp"
#include "shard/sharded_csv.hpp"
#include "shard/sharded_discovery.hpp"

namespace perfbench {
namespace {

using namespace normalize;

constexpr int kThreads = 2;
constexpr int kMaxLhs = 2;
constexpr size_t kBatchSize = 64;
constexpr uint64_t kCheckpointEvery = 16;
/// serve_churn reads Schema() after every kChurnSchemaReadEvery-th batch;
/// the batch workloads read the schema after every kBatchSchemaReadEvery-th
/// op.
constexpr int kChurnSchemaReadEvery = 8;
constexpr int kBatchSchemaReadEvery = 3;
constexpr size_t kShardRows = 875;
constexpr size_t kIngestBudgetBytes = size_t{1} << 20;
/// Set-ups repeated per run where one set-up is cheap enough to repeat;
/// setup_s is their median.
constexpr int kSetupReps = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp = ".";
};

/// Fixed op count for a run of `seconds` at the workload's nominal rate:
/// the same on every commit, whatever the commit's speed.
int OpCount(const Args& args, double ops_per_second, int min_ops) {
  return std::max(min_ops,
                  static_cast<int>(std::lround(args.seconds * ops_per_second)));
}

void Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench_runner: %s\n", message.c_str());
  std::exit(2);
}

template <typename T>
T Unwrap(Result<T> result, const std::string& what) {
  if (!result.ok()) Fail(what + ": " + result.status().ToString());
  return std::move(result).value();
}

void Require(const Status& status, const std::string& what) {
  if (!status.ok()) Fail(what + ": " + status.ToString());
}

FdDiscoveryOptions DiscoveryOptions(int max_lhs, ThreadPool* pool = nullptr) {
  FdDiscoveryOptions options;
  options.max_lhs_size = max_lhs;
  options.threads = kThreads;
  options.pool = pool;
  return options;
}

NormalizerOptions NormalizeOptions(int max_lhs) {
  NormalizerOptions options;
  options.discovery_algorithm = "hyfd";
  options.discovery = DiscoveryOptions(max_lhs);
  // The Normalizer sizes its shared pool by its largest thread knob, and
  // shard.threads defaults to the hardware concurrency.
  options.shard.threads = kThreads;
  return options;
}

ShardOptions IngestShardOptions() {
  ShardOptions shard;
  shard.shard_rows = kShardRows;
  shard.memory_budget_bytes = kIngestBudgetBytes;
  shard.threads = kThreads;
  return shard;
}

/// `base` with every value enciphered by a seed-drawn substitution of
/// digits, lower-case and upper-case letters (each class permuted within
/// itself). The substitution is one-to-one, so each seed gives a different
/// input with the same FD structure, value distributions and lengths, and
/// so the same work: runs on different seeds are independent samples of one
/// workload. (The generators' own seeds change the FD structure, and with it
/// an op's cost by up to 2x.)
RelationData Relabel(const RelationData& base, uint64_t seed) {
  Rng rng(seed);
  char map[256];
  for (int c = 0; c < 256; ++c) map[c] = static_cast<char>(c);
  for (const char* cls : {"0123456789", "abcdefghijklmnopqrstuvwxyz",
                          "ABCDEFGHIJKLMNOPQRSTUVWXYZ"}) {
    std::string shuffled = cls;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[static_cast<size_t>(rng.Uniform(
                                     0, static_cast<int64_t>(i) - 1))]);
    }
    for (size_t i = 0; cls[i] != '\0'; ++i) {
      map[static_cast<unsigned char>(cls[i])] = shuffled[i];
    }
  }
  RelationData out(base.name(), base.attribute_ids(), base.ColumnNames());
  out.set_universe_size(base.universe_size());
  const size_t columns = static_cast<size_t>(base.num_columns());
  std::vector<std::string> cells(columns);
  std::vector<bool> is_null(columns);
  for (size_t row = 0; row < base.num_rows(); ++row) {
    for (size_t c = 0; c < columns; ++c) {
      const Column& column = base.column(static_cast<int>(c));
      is_null[c] = column.IsNull(row);
      cells[c] = is_null[c] ? std::string() : std::string(column.ValueAt(row));
      for (char& ch : cells[c]) ch = map[static_cast<unsigned char>(ch)];
    }
    out.AppendRow(cells, is_null);
  }
  return out;
}

/// The TPC-H-like universal relation (3500 x 53, default TpchScale).
RelationData TpchInput(uint64_t seed) {
  return Relabel(GenerateTpchLike(TpchScale{}).universal, seed);
}

/// Horse-like data (368 x 27).
RelationData HorseInput(uint64_t seed) {
  return Relabel(HorseLike(1.0, 1), seed);
}

/// Canonical form of a cover: sorted unary FDs. Two covers are
/// bit-identical iff these are equal.
std::vector<Fd> Canonical(const FdSet& fds) { return fds.ToUnary(); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Layer probes: each calls one layer's public functions on the workload's
// input, wrapped in spans, outside the timed ops.

/// Closure, key derivation, violation detection, and decomposition on the
/// top-ranked violating FD — the paper's Table 3 components, first-call
/// semantics (the whole input relation).
void ProbeComponents(const RelationData& input, const FdSet& cover,
                     RunRecord& run) {
  AttributeSet attrs = input.AttributesAsSet();
  FdSet extended = cover;
  std::unique_ptr<ClosureAlgorithm> closure = MakeClosure("optimized");
  {
    Span span(run.spans, "closure.extend");
    Require(closure->Extend(&extended, attrs), "closure");
  }
  std::vector<AttributeSet> keys;
  FdSet projected;
  {
    Span span(run.spans, "normalize.key_derivation");
    projected = ProjectFds(extended, attrs);
    keys = DeriveKeys(projected, attrs);
  }
  run.counts["normalize.fd_keys"] = static_cast<double>(keys.size());
  AttributeSet nullable(input.universe_size());
  for (int c = 0; c < input.num_columns(); ++c) {
    if (input.column(c).has_null()) {
      nullable.Set(input.attribute_ids()[static_cast<size_t>(c)]);
    }
  }
  std::vector<Fd> violating;
  {
    Span span(run.spans, "normalize.violation_detection");
    violating = DetectViolatingFds(projected, keys,
                                   RelationSchema(input.name(), attrs),
                                   nullable);
  }
  if (violating.empty()) return;
  std::vector<ScoredFd> ranked = ConstraintScorer(input).RankFds(violating);
  Span span(run.spans, "normalize.decomposition");
  Decomposition split = DecomposeData(input, ranked.front().fd, "split");
  (void)split;
}

/// Streaming CSV ingest of `csv_path` into shards.
Result<ShardedRelation> Ingest(const std::string& csv_path, RunRecord& run) {
  Span span(run.spans, "relation.ingest");
  return ShardedCsvReader(CsvOptions{}, IngestShardOptions())
      .ReadFile(csv_path);
}

/// Partitioned discovery with merge-and-validate over `shards`.
Result<FdSet> ShardDiscover(const std::vector<RelationData>& shards,
                            int max_lhs, RunRecord& run) {
  ShardedDiscovery discovery("hyfd", DiscoveryOptions(max_lhs),
                             IngestShardOptions());
  Result<FdSet> fds = [&] {
    Span span(run.spans, "shard.discover");
    return discovery.Discover(shards);
  }();
  const ShardedDiscovery::Stats& s = discovery.stats();
  run.counts["shard.cross_shard_violations"] =
      static_cast<double>(s.cross_shard_violations);
  run.counts["shard.validated_candidates"] =
      static_cast<double>(s.validated_candidates);
  run.counts["shard.exchanged_evidence_sets"] =
      static_cast<double>(s.exchanged_evidence_sets);
  run.counts["shard.cross_shard_comparisons"] =
      static_cast<double>(s.cross_shard_comparisons);
  return fds;
}

/// Ingest and sharded discovery of `input`, written as CSV to `csv_path`.
void ProbeIngestAndShards(const RelationData& input, int max_lhs,
                          const std::string& csv_path, RunRecord& run) {
  Require(CsvWriter().WriteFile(input, csv_path), "write csv");
  for (int rep = 0; rep < 3; ++rep) {
    ShardedRelation sharded = Unwrap(Ingest(csv_path, run), "ingest");
    Unwrap(ShardDiscover(sharded.shards, max_lhs, run), "shard discover");
  }
  std::filesystem::remove(csv_path);
}

/// The default 50/30/20 NURand stream in batches of 64. Its own seed stays
/// fixed, like the generators' (see Relabel): the run's seed reaches the
/// stream through the relabelled values it draws from.
UpdateStreamSpec StreamSpec() {
  UpdateStreamSpec spec;
  spec.batch_size = kBatchSize;
  return spec;
}

/// The service's log-and-apply steps without the service: a bare
/// LiveRelation + DeltaFdMaintainer, each batch first encoded and appended
/// to an unsynced WAL ("service.wal_append"), then applied (span named by
/// the caller). Initialize runs in the constructor ("live.initialize").
class LiveReplay {
 public:
  LiveReplay(const RelationData& initial, int max_lhs,
             const std::string& wal_path, RunRecord& run)
      : live_(initial),
        maintainer_(&live_, MaintainerOptions(max_lhs)),
        wal_path_(wal_path),
        wal_(Unwrap(WalWriter::Open(wal_path, false), "wal open")),
        run_(run) {
    Span span(run_.spans, "live.initialize");
    Require(maintainer_.Initialize(), "maintainer initialize");
  }

  ~LiveReplay() { std::filesystem::remove(wal_path_); }

  const LiveRelation& live() const { return live_; }

  void Apply(const LiveBatch& batch, const char* span_name) {
    {
      Span span(run_.spans, "service.wal_append");
      Require(wal_.Append(++seq_, EncodeLiveBatch(batch)), "wal append");
    }
    Span span(run_.spans, span_name);
    Require(maintainer_.ApplyBatch(batch), "apply batch");
  }

  /// Starts the window the per-batch counts are averaged over.
  void MarkCounts() {
    mark_ = maintainer_.stats();
    mark_batches_ = maintainer_.stats().batches_applied;
  }

  /// Per-batch maintainer counts since MarkCounts(), the final cover size,
  /// and a few timed materializations of the live rows.
  void Finish() {
    const DeltaFdMaintainer::Stats& now = maintainer_.stats();
    const double batches =
        static_cast<double>(now.batches_applied - mark_batches_);
    auto per_batch = [&](const char* name, size_t before, size_t after) {
      run_.counts[name] = static_cast<double>(after - before) / batches;
    };
    per_batch("live.full_validations", mark_.full_validations,
              now.full_validations);
    per_batch("live.guided_probes", mark_.guided_probes, now.guided_probes);
    per_batch("live.violations", mark_.violations, now.violations);
    per_batch("live.evidence_dropped", mark_.evidence_dropped,
              now.evidence_dropped);
    per_batch("live.evidence_reseated", mark_.evidence_reseated,
              now.evidence_reseated);
    per_batch("live.tree_rebuilds", mark_.tree_rebuilds, now.tree_rebuilds);
    run_.counts["live.cover_fds"] =
        static_cast<double>(maintainer_.snapshot()->cover.CountUnaryFds());
    for (int rep = 0; rep < 5; ++rep) {
      Span span(run_.spans, "live.materialize");
      RelationData rows = live_.Materialize("live");
      (void)rows;
    }
  }

 private:
  static DeltaFdMaintainerOptions MaintainerOptions(int max_lhs) {
    DeltaFdMaintainerOptions options;
    options.max_lhs_size = max_lhs;
    options.threads = kThreads;
    return options;
  }

  LiveRelation live_;
  DeltaFdMaintainer maintainer_;
  std::string wal_path_;
  WalWriter wal_;
  RunRecord& run_;
  uint64_t seq_ = 0;
  DeltaFdMaintainer::Stats mark_;
  uint64_t mark_batches_ = 0;
};

ServiceCoreOptions ServiceOptions(const std::string& dir, int max_lhs) {
  std::filesystem::remove_all(dir);
  ServiceCoreOptions options;
  options.dir = dir;
  options.checkpoint_every = kCheckpointEvery;
  options.sync_wal = false;  // page cache only; the flush policy of the run
  options.max_lhs_size = max_lhs;
  options.threads = kThreads;
  options.metrics_snapshot_interval_ms = 0.0;
  return options;
}

/// The service counts of a finished stream: WAL bytes per row operation
/// and checkpoint ticks.
void RecordServiceCounts(const ServiceCore& core, double row_ops,
                         RunRecord& run) {
  ServiceStats stats = core.stats();
  run.counts["service.wal_bytes_per_op"] =
      static_cast<double>(stats.wal_bytes) / row_ops;
  run.counts["service.checkpoints"] = static_cast<double>(stats.checkpoints);
}

/// A short service stream on `initial` for workloads whose op does not
/// reach the service or the live layer: Open, the first batch, then
/// `batches` acks in "service.ack" spans, each batch fed just before to a
/// bare replay (see serve_churn).
void ProbeServiceAndLive(const RelationData& initial, int max_lhs,
                         int batches, const std::string& dir,
                         RunRecord& run) {
  auto core = Unwrap(ServiceCore::Open(initial, ServiceOptions(dir, max_lhs)),
                     "service open");
  LiveReplay replay(initial, max_lhs, dir + ".wal", run);
  LiveRelation mirror(initial);
  UpdateStreamGenerator stream(initial, StreamSpec());
  double row_ops = 0.0;
  for (int b = 0; b <= batches; ++b) {
    LiveBatch batch = stream.NextBatch(mirror);
    Require(mirror.Apply(batch).status(), "mirror apply");
    row_ops += static_cast<double>(batch.size());
    replay.Apply(batch, b == 0 ? "live.first_batch" : "live.apply_batch");
    if (b == 0) replay.MarkCounts();
    Span span(run.spans, b == 0 ? nullptr : "service.ack");
    Require(core->Apply(static_cast<uint64_t>(b) + 1, std::move(batch)),
            "service apply");
  }
  replay.Finish();
  RecordServiceCounts(*core, row_ops, run);
  Require(core->Shutdown(), "service shutdown");
  core.reset();
  std::filesystem::remove_all(dir);
}

/// Every layer the workload's op does not reach, probed on its input.
struct Probes {
  bool discovery = true;
  bool components = true;
  bool finish = false;
  bool ingest_and_shards = true;
  bool live_and_service = true;
};

void RunProbes(const Args& args, const RelationData& input, const FdSet& cover,
               int max_lhs, const Probes& probes, RunRecord& run) {
  if (probes.discovery) {
    for (int rep = 0; rep < 3; ++rep) {
      std::unique_ptr<FdDiscovery> hyfd =
          MakeFdDiscovery("hyfd", DiscoveryOptions(max_lhs));
      Span span(run.spans, "discovery.discover");
      FdSet fds = Unwrap(hyfd->Discover(input), "discover");
      run.counts["discovery.fds"] = static_cast<double>(fds.CountUnaryFds());
    }
  }
  if (probes.components) {
    for (int rep = 0; rep < 3; ++rep) ProbeComponents(input, cover, run);
  }
  if (probes.finish) {
    Normalizer normalizer(NormalizeOptions(max_lhs));
    for (int rep = 0; rep < 3; ++rep) {
      Span span(run.spans, "normalize.finish");
      Unwrap(normalizer.RenormalizeWithCover(input, cover), "renormalize");
    }
  }
  if (probes.ingest_and_shards) {
    ProbeIngestAndShards(input, max_lhs, args.tmp + "/probe.csv", run);
  }
  if (probes.live_and_service) {
    constexpr int kProbeBatches = 12;
    ProbeServiceAndLive(input, max_lhs, kProbeBatches,
                        args.tmp + "/probe_service", run);
  }
}

// ---------------------------------------------------------------------------
// Workloads.

void NormalizeTpch(const Args& args, RunRecord& run) {
  const int ops = OpCount(args, 1.4, 24);
  RelationData input;
  std::unique_ptr<Normalizer> normalizer;
  std::optional<NormalizationResult> reference;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    double start = NowMs();
    input = TpchInput(args.seed);
    normalizer = std::make_unique<Normalizer>(NormalizeOptions(kMaxLhs));
    NormalizationResult warm =
        Unwrap(normalizer->Normalize(input), "warm-up normalize");
    run.setup_s.push_back((NowMs() - start) / 1000.0);
    if (!reference) reference = std::move(warm);
  }
  const size_t ref_fds = reference->stats.num_fds;
  const std::string ref_schema = reference->schema.ToString();
  run.counts["discovery.fds"] = static_cast<double>(ref_fds);
  ThreadPool pool(kThreads);

  for (int i = 0; i < ops; ++i) {
    const bool traced = run.spans.enabled() && i % 2 == 0;
    Result<NormalizationResult> result = Status::Internal("not run");
    double ms = 0.0;
    if (traced) {
      ms = TimeMs([&] {
        Span op(run.spans, "op");
        auto hyfd = MakeFdDiscovery("hyfd", DiscoveryOptions(kMaxLhs, &pool));
        Result<FdSet> fds = [&] {
          Span span(run.spans, "discovery.discover");
          return hyfd->Discover(input);
        }();
        hyfd.reset();  // as Normalize frees discovery before finishing
        if (!fds.ok()) return;
        Span span(run.spans, "normalize.finish");
        result =
            normalizer->RenormalizeWithCover(input, std::move(fds).value());
      });
      run.op_ms.push_back(ms);
    } else {
      ms = TimeMs([&] { result = normalizer->Normalize(input); });
      (run.spans.enabled() ? run.untraced_op_ms : run.op_ms).push_back(ms);
    }
    run.row_ops += static_cast<double>(input.num_rows());
    run.Check(result.ok() && result->stats.num_fds == ref_fds &&
                  result->schema.ToString() == ref_schema,
              "normalize_tpch op " + std::to_string(i));
    if (i % kBatchSchemaReadEvery == kBatchSchemaReadEvery - 1) {
      Result<NormalizationResult> reread = Status::Internal("not run");
      run.schema_ms.push_back(TimeMs([&] {
        reread = normalizer->RenormalizeWithCover(input,
                                                  reference->discovered_fds);
      }));
      run.Check(reread.ok() && reread->schema.ToString() == ref_schema,
                "normalize_tpch schema read " + std::to_string(i));
    }
  }
  run.blocking = {"op", "discovery.discover", "normalize.finish"};
  if (run.spans.enabled()) {
    Probes probes;
    probes.discovery = false;
    RunProbes(args, input, reference->discovered_fds, kMaxLhs, probes, run);
  }
}

void RenormalizeHorse(const Args& args, RunRecord& run) {
  const int ops = OpCount(args, 2.4, 24);
  constexpr int kFullCover = -1;
  double start = NowMs();
  RelationData input = HorseInput(args.seed);
  Normalizer normalizer(NormalizeOptions(kFullCover));
  // The reference is a full Normalize; its discovered cover is the one the
  // ops reuse.
  NormalizationResult reference =
      Unwrap(normalizer.Normalize(input), "reference normalize");
  for (int warm = 0; warm < 2; ++warm) {
    Unwrap(normalizer.RenormalizeWithCover(input, reference.discovered_fds),
           "warm-up renormalize");
  }
  // The schema read of this workload targets 3NF: the BCNF read from the
  // cover is the op itself.
  NormalizerOptions third_nf_options = NormalizeOptions(kFullCover);
  third_nf_options.normal_form = NormalForm::kThirdNf;
  Normalizer third_nf(third_nf_options);
  const std::string ref_third_nf =
      Unwrap(third_nf.RenormalizeWithCover(input, reference.discovered_fds),
             "warm-up 3NF read")
          .schema.ToString();
  run.setup_s.push_back((NowMs() - start) / 1000.0);
  const std::string ref_schema = reference.schema.ToString();

  for (int i = 0; i < ops; ++i) {
    const bool traced = run.spans.enabled() && i % 2 == 0;
    Result<NormalizationResult> result = Status::Internal("not run");
    double ms = TimeMs([&] {
      Span op(run.spans, traced ? "op" : nullptr);
      Span span(run.spans, traced ? "normalize.finish" : nullptr);
      result = normalizer.RenormalizeWithCover(input, reference.discovered_fds);
    });
    (run.spans.enabled() && !traced ? run.untraced_op_ms : run.op_ms)
        .push_back(ms);
    run.row_ops += static_cast<double>(input.num_rows());
    run.Check(result.ok() && result->schema.ToString() == ref_schema,
              "renormalize_horse op " + std::to_string(i));
    if (i % kBatchSchemaReadEvery == kBatchSchemaReadEvery - 1) {
      Result<NormalizationResult> read = Status::Internal("not run");
      run.schema_ms.push_back(TimeMs([&] {
        read = third_nf.RenormalizeWithCover(input, reference.discovered_fds);
      }));
      run.Check(read.ok() && read->schema.ToString() == ref_third_nf,
                "renormalize_horse 3NF read " + std::to_string(i));
    }
  }
  run.blocking = {"op", "normalize.finish"};
  if (run.spans.enabled()) {
    // The full cover's discovery is set-up work here; time it once more.
    std::unique_ptr<FdDiscovery> hyfd =
        MakeFdDiscovery("hyfd", DiscoveryOptions(kFullCover));
    {
      Span span(run.spans, "discovery.discover");
      Unwrap(hyfd->Discover(input), "discover");
    }
    run.counts["discovery.fds"] =
        static_cast<double>(reference.discovered_fds.CountUnaryFds());
    Probes probes;
    probes.discovery = false;
    RunProbes(args, input, reference.discovered_fds, kMaxLhs, probes, run);
  }
}

void ServeChurn(const Args& args, RunRecord& run) {
  const int batches = OpCount(args, 2.0, 24);
  const std::string dir = args.tmp + "/serve_churn";
  double start = NowMs();
  RelationData initial = TpchInput(args.seed);
  auto core = Unwrap(ServiceCore::Open(initial, ServiceOptions(dir, kMaxLhs)),
                     "service open");
  LiveRelation mirror(initial);
  UpdateStreamGenerator stream(initial, StreamSpec());
  uint64_t seq = 0;
  auto next_batch = [&] {
    LiveBatch batch = stream.NextBatch(mirror);
    Require(mirror.Apply(batch).status(), "mirror apply");
    return batch;
  };
  // The first batch re-induces the whole tree (the bootstrap evidence has
  // no witness rows), so it belongs to set-up, as does a first schema read.
  LiveBatch first = next_batch();
  double row_ops = static_cast<double>(first.size());
  // Traced runs feed every batch to a bare replay just before the service
  // gets it, so both see the same phase of the CPU's speed.
  std::optional<LiveReplay> replay;
  if (run.spans.enabled()) {
    replay.emplace(initial, kMaxLhs, args.tmp + "/replay.wal", run);
    replay->Apply(first, "live.first_batch");
    replay->MarkCounts();
  }
  Require(core->Apply(++seq, std::move(first)), "first batch");
  Unwrap(core->Schema(), "warm-up schema");
  run.setup_s.push_back((NowMs() - start) / 1000.0);

  for (int b = 0; b < batches; ++b) {
    const bool traced = run.spans.enabled() && b % 2 == 0;
    LiveBatch batch = next_batch();
    const double size = static_cast<double>(batch.size());
    if (replay) replay->Apply(batch, "live.apply_batch");
    Status ack;
    double ms = TimeMs([&] {
      Span span(run.spans, traced ? "service.ack" : nullptr);
      ack = core->Apply(++seq, std::move(batch));
    });
    (run.spans.enabled() && !traced ? run.untraced_op_ms : run.op_ms)
        .push_back(ms);
    run.row_ops += size;
    row_ops += size;
    run.Check(ack.ok(), "serve_churn ack " + std::to_string(seq));
    if ((b + 1) % kChurnSchemaReadEvery == 0) {
      Result<std::string> schema = Status::Internal("not run");
      run.schema_ms.push_back(TimeMs([&] { schema = core->Schema(); }));
      run.Check(schema.ok() && !schema->empty(),
                "serve_churn schema read " + std::to_string(seq));
    }
  }
  if (replay) {
    replay->Finish();
    replay.reset();
  }
  // The maintained cover must be bit-identical to one-shot HyFD on the
  // final live rows.
  RelationData final_rows = Unwrap(core->Materialize(), "materialize");
  std::unique_ptr<FdDiscovery> oneshot =
      MakeFdDiscovery("hyfd", DiscoveryOptions(kMaxLhs));
  FdSet expected = Unwrap(oneshot->Discover(final_rows), "one-shot discover");
  run.Check(Canonical(core->Cover()->cover) == Canonical(expected),
            "serve_churn final cover equals one-shot HyFD");
  RecordServiceCounts(*core, row_ops, run);
  Require(core->Shutdown(), "service shutdown");
  core.reset();
  std::filesystem::remove_all(dir);

  run.blocking = {"service.wal_append", "live.apply_batch"};
  if (run.spans.enabled()) {
    Probes probes;
    probes.finish = true;
    probes.live_and_service = false;
    RunProbes(args, final_rows, expected, kMaxLhs, probes, run);
  }
}

void IngestSharded(const Args& args, RunRecord& run) {
  const int ops = OpCount(args, 1.3, 24);
  const std::string csv_path = args.tmp + "/ingest.csv";
  RelationData input;
  std::unique_ptr<Normalizer> normalizer;
  std::string ref_schema;
  std::vector<Fd> ref_fds;
  RelationData unsharded;
  FdSet unsharded_cover;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    double start = NowMs();
    input = TpchInput(args.seed);
    Require(CsvWriter().WriteFile(input, csv_path), "write csv");
    NormalizerOptions options = NormalizeOptions(kMaxLhs);
    options.shard = IngestShardOptions();
    normalizer = std::make_unique<Normalizer>(options);
    NormalizationResult warm =
        Unwrap(normalizer->NormalizeCsvFile(csv_path), "warm-up ingest");
    run.setup_s.push_back((NowMs() - start) / 1000.0);
    if (rep == 0) {
      ref_schema = warm.schema.ToString();
      // The FD set every op must reproduce: unsharded discovery.
      unsharded =
          Unwrap(CsvReader().ReadFile(csv_path), "read csv");
      unsharded_cover = Unwrap(
          MakeFdDiscovery("hyfd", DiscoveryOptions(kMaxLhs))->Discover(unsharded),
          "unsharded discover");
      ref_fds = Canonical(unsharded_cover);
    }
  }
  run.counts["discovery.fds"] = static_cast<double>(ref_fds.size());

  for (int i = 0; i < ops; ++i) {
    const bool traced = run.spans.enabled() && i % 2 == 0;
    Result<NormalizationResult> result = Status::Internal("not run");
    std::vector<Fd> fds;
    double ms = 0.0;
    if (traced) {
      ms = TimeMs([&] {
        Span op(run.spans, "op");
        Result<ShardedRelation> sharded = Ingest(csv_path, run);
        if (!sharded.ok()) return;
        Result<FdSet> cover = ShardDiscover(sharded->shards, kMaxLhs, run);
        if (!cover.ok()) return;
        fds = Canonical(*cover);
        RelationData whole = sharded->Concatenate(sharded->name);
        Span span(run.spans, "normalize.finish");
        result = normalizer->RenormalizeWithCover(whole, std::move(cover).value());
      });
      run.op_ms.push_back(ms);
    } else {
      ms = TimeMs([&] { result = normalizer->NormalizeCsvFile(csv_path); });
      (run.spans.enabled() ? run.untraced_op_ms : run.op_ms).push_back(ms);
      if (result.ok()) fds = Canonical(result->discovered_fds);
    }
    run.row_ops += static_cast<double>(input.num_rows());
    run.Check(result.ok() && fds == ref_fds &&
                  result->schema.ToString() == ref_schema,
              "ingest_sharded op " + std::to_string(i));
    if (i % kBatchSchemaReadEvery == kBatchSchemaReadEvery - 1) {
      Result<NormalizationResult> read = Status::Internal("not run");
      run.schema_ms.push_back(TimeMs([&] {
        read = normalizer->RenormalizeWithCover(unsharded, unsharded_cover);
      }));
      run.Check(read.ok() && read->schema.ToString() == ref_schema,
                "ingest_sharded schema read " + std::to_string(i));
    }
  }
  std::filesystem::remove(csv_path);
  run.blocking = {"op", "relation.ingest", "shard.discover",
                  "normalize.finish"};
  if (run.spans.enabled()) {
    Probes probes;
    probes.ingest_and_shards = false;
    RunProbes(args, unsharded, unsharded_cover, kMaxLhs, probes, run);
  }
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--tmp") {
      args.tmp = value;
    } else {
      Fail("unknown flag " + key);
    }
  }
  return args;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args = ParseArgs(argc, argv);
  std::filesystem::create_directories(args.tmp);
  RunRecord run(args.trace);
  if (args.workload == "normalize_tpch") {
    NormalizeTpch(args, run);
  } else if (args.workload == "renormalize_horse") {
    RenormalizeHorse(args, run);
  } else if (args.workload == "serve_churn") {
    ServeChurn(args, run);
  } else if (args.workload == "ingest_sharded") {
    IngestSharded(args, run);
  } else {
    Fail("unknown workload '" + args.workload + "'");
  }
  WriteJson(run, args.workload, args.seed, PeakRssMb(), stdout);
  return 0;
}
