// Serving-layer benchmark: a standing RC session absorbing small
// evidence deltas (~1% of the evidence each) versus from-scratch
// inference on every change. Reports delta throughput, warm vs cold
// latency, and the fraction of MRF components each delta re-searched.
//
// BENCH_JSON schema:
//   {"bench":"serving","dataset":"RC","system":"session",
//    "cold_seconds":..., "open_seconds":..., "warm_seconds_avg":...,
//    "speedup":..., "deltas_per_sec":...,
//    "frac_components_researched":..., "session_cost":...,
//    "fresh_cost":..., "ground_seconds_avg":...,
//    "bindings_resolved_avg":...}
//
// ground_seconds_avg is the binding-level delta grounding (join only the
// delta rows against the rest of each touched rule); the final session
// cost must match the from-scratch run exactly.
//
// A durability lesion follows (docs/DURABILITY.md): the same delta
// stream through wal_off / wal_nosync / wal_fsync+snapshots sessions,
// then a snapshot+replay restart. Emits one
//   BENCH_JSON {"bench":"serving_durability","variant":...}
// line per variant with the per-delta logging overhead, and for the
// restart the Recover wall time plus a bit-identity check against the
// pre-restart session.
//
// Last, an observability lesion (docs/OBSERVABILITY.md): the identical
// stream with metrics + per-delta tracing enabled vs the kill switch
// off. Instrumentation must not steer inference — the final truth
// vector and MAP cost are checked bit-identical — and its cost is the
//   BENCH_JSON {"bench":"serving_obs","overhead_frac":...}
// line, which the <5%-per-delta budget in ISSUE terms is judged on.

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "obs/trace.h"
#include "serve/inference_session.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace tuffy;
using namespace tuffy::bench;

namespace {

// Search-dominant budget: serving workloads run long search budgets over
// a standing MRF, which is exactly where warm starts pay.
constexpr uint64_t kFlips = 8000000;
constexpr int kDeltas = 12;

Dataset ServingRc() {
  RcParams p;
  p.num_clusters = 60;
  p.papers_per_cluster = 10;
  p.num_categories = 6;
  p.labeled_fraction = 0.5;
  auto r = MakeRcDataset(p);
  if (!r.ok()) {
    std::fprintf(stderr, "RC generation failed: %s\n",
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return r.TakeValue();
}

EngineOptions ColdOptions() {
  EngineOptions opts;
  opts.search_mode = SearchMode::kComponentAware;
  opts.grounding.lazy_closure = false;  // session grounding semantics
  opts.total_flips = kFlips;
  opts.seed = 42;
  return opts;
}

}  // namespace

int main() {
  PrintHeader("Serving: delta grounding + warm-started search vs cold runs");
  Dataset ds = ServingRc();

  // Cold baseline: one full ground-and-search run.
  Timer cold_timer;
  EngineResult cold = MustRun(ds, ColdOptions());
  double cold_seconds = cold_timer.ElapsedSeconds();
  std::printf("cold Infer: %zu atoms, %zu clauses, %zu components, "
              "cost %.2f, %.3fs\n",
              cold.grounding.atoms.num_atoms(),
              cold.grounding.clauses.num_clauses(), cold.num_components,
              cold.total_cost, cold_seconds);

  // Standing session.
  SessionOptions sopts;
  sopts.total_flips = kFlips;
  sopts.seed = 42;
  InferenceSession session(ds.program, sopts);
  Timer open_timer;
  Status open = session.Open(ds.evidence);
  if (!open.ok()) {
    std::fprintf(stderr, "session open failed: %s\n",
                 open.ToString().c_str());
    return 1;
  }
  double open_seconds = open_timer.ElapsedSeconds();
  std::printf("session open: cost %.2f, %zu components, %.3fs\n",
              session.map_cost(), session.num_components(), open_seconds);

  // Delta stream: each delta relabels one paper (retract + assert) —
  // two evidence atoms out of thousands, confined to one cluster.
  PredicateId cat = ds.program.FindPredicate("cat").value();
  std::vector<GroundAtom> labels;
  for (const auto& [atom, truth] : ds.evidence.entries()) {
    if (atom.pred == cat && truth) labels.push_back(atom);
  }
  ConstantId other_cat = ds.program.symbols().Find("Theory");
  Rng rng(7);
  std::vector<EvidenceDelta> deltas;
  EvidenceDb accumulated = ds.evidence;
  for (int d = 0; d < kDeltas; ++d) {
    const GroundAtom& victim = labels[rng.Uniform(labels.size())];
    EvidenceDelta delta;
    delta.Retract(victim);
    GroundAtom relabeled = victim;
    relabeled.args[1] =
        relabeled.args[1] == other_cat
            ? ds.program.symbols().Find("Networking")
            : other_cat;
    delta.Assert(relabeled, true);
    deltas.push_back(delta);
    accumulated.Remove(victim);
    accumulated.Add(relabeled, true);
  }

  double warm_seconds_total = 0.0;
  double frac_researched_total = 0.0;
  double ground_seconds_total = 0.0;
  double bindings_total = 0.0;
  double maintenance_rows_total = 0.0;
  std::vector<MetricSample> warm_base = MetricsBaseline();
  for (int d = 0; d < kDeltas; ++d) {
    Timer delta_timer;
    auto r = session.ApplyDelta(deltas[d]);
    if (!r.ok()) {
      std::fprintf(stderr, "delta %d failed: %s\n", d,
                   r.status().ToString().c_str());
      return 1;
    }
    double seconds = delta_timer.ElapsedSeconds();
    warm_seconds_total += seconds;
    ground_seconds_total += r.value().edits.ground_seconds;
    bindings_total += static_cast<double>(r.value().edits.bindings_resolved);
    maintenance_rows_total +=
        static_cast<double>(r.value().edits.maintenance_rows);
    double frac = r.value().components_total > 0
                      ? static_cast<double>(r.value().components_dirty) /
                            static_cast<double>(r.value().components_total)
                      : 0.0;
    frac_researched_total += frac;
    std::printf(
        "delta %2d: %.3fs (ground %.3fs, %zu bindings), %zu/%zu components "
        "re-searched (%.1f%%), %llu flips, cost %.2f\n",
        d, seconds, r.value().edits.ground_seconds,
        r.value().edits.bindings_resolved, r.value().components_dirty,
        r.value().components_total, 100 * frac,
        static_cast<unsigned long long>(r.value().flips),
        r.value().map_cost);
  }

  // Equivalence spot check: a from-scratch run over the accumulated
  // evidence (identical grounding semantics).
  TuffyEngine fresh_engine(ds.program, accumulated, ColdOptions());
  auto fresh = fresh_engine.Run();
  if (!fresh.ok()) {
    std::fprintf(stderr, "fresh engine failed: %s\n",
                 fresh.status().ToString().c_str());
    return 1;
  }
  double session_cost = session.map_cost();
  double fresh_cost = fresh.value().total_cost;
  std::printf("final: session cost %.4f vs fresh cost %.4f (eval %.4f)\n",
              session_cost, fresh_cost, session.EvalCurrentCost());
  if (session_cost != fresh_cost) {
    std::fprintf(stderr,
                 "FAIL: session cost diverged from the from-scratch run\n");
    return 1;
  }
  double ground_avg = ground_seconds_total / kDeltas;
  std::printf("delta grounding: %.4fs/delta (%.0f bindings avg)\n",
              ground_avg, bindings_total / kDeltas);
  std::printf(
      "table maintenance: %.0f rows/delta from the touched predicates' "
      "evidence relations (evidence map: %zu entries, never rescanned)\n",
      maintenance_rows_total / kDeltas, accumulated.num_evidence());

  double warm_avg = warm_seconds_total / kDeltas;
  double frac_avg = frac_researched_total / kDeltas;
  {
    BenchJson row("serving");
    row.Str("dataset", ds.name)
        .Str("system", "session")
        .Num("cold_seconds", cold_seconds)
        .Num("open_seconds", open_seconds)
        .Num("warm_seconds_avg", warm_avg)
        .Num("speedup", warm_avg > 0 ? cold_seconds / warm_avg : 0.0, 2)
        .Num("deltas_per_sec", warm_avg > 0 ? 1.0 / warm_avg : 0.0, 2)
        .Num("frac_components_researched", frac_avg)
        .Num("session_cost", session_cost)
        .Num("fresh_cost", fresh_cost)
        .Num("ground_seconds_avg", ground_avg, 5)
        .Num("bindings_resolved_avg", bindings_total / kDeltas, 1)
        .Num("maintenance_rows_avg", maintenance_rows_total / kDeltas, 1)
        .Int("evidence_rows", accumulated.num_evidence())
        .Metrics(warm_base)
        .Emit();
  }

  // ------------------------------------------------- durability lesion
  // What does making the delta stream crash-safe cost? Three sessions
  // run the identical stream: no WAL, WAL without fsync (OS write-back
  // is the commit point), and the full discipline (per-delta fsync +
  // a snapshot every 4 deltas). Durability knobs never change results,
  // so every variant must land on the volatile session's exact cost.
  PrintHeader("Durability lesion: WAL / fsync / snapshot overhead");
  struct DurabilityVariant {
    const char* name;
    bool wal;
    bool fsync;
    uint32_t snapshot_every;
  };
  const DurabilityVariant variants[] = {
      {"wal_off", false, false, 0},
      {"wal_nosync", true, false, 0},
      {"wal_fsync_snap4", true, true, 4},
  };
  double baseline_avg = 0.0;
  for (const DurabilityVariant& variant : variants) {
    SessionOptions dopts = sopts;
    std::optional<ScratchDir> wal_root;
    if (variant.wal) {
      wal_root.emplace("bench_serving_wal");
      if (!wal_root->ok()) {
        std::fprintf(stderr, "mkdtemp failed\n");
        return 1;
      }
      dopts.wal_dir = wal_root->path() + "/session";
      dopts.wal_fsync = variant.fsync;
      dopts.snapshot_every = variant.snapshot_every;
    }
    InferenceSession durable(ds.program, dopts);
    Status dopen = durable.Open(ds.evidence);
    if (!dopen.ok()) {
      std::fprintf(stderr, "%s open failed: %s\n", variant.name,
                   dopen.ToString().c_str());
      return 1;
    }
    Timer stream_timer;
    for (int d = 0; d < kDeltas; ++d) {
      auto r = durable.ApplyDelta(deltas[d]);
      if (!r.ok()) {
        std::fprintf(stderr, "%s delta %d failed: %s\n", variant.name, d,
                     r.status().ToString().c_str());
        return 1;
      }
    }
    double stream_seconds = stream_timer.ElapsedSeconds();
    double variant_avg = stream_seconds / kDeltas;
    if (!variant.wal) baseline_avg = variant_avg;
    double overhead = baseline_avg > 0
                          ? (variant_avg - baseline_avg) / baseline_avg
                          : 0.0;
    if (durable.map_cost() != session_cost) {
      std::fprintf(stderr, "FAIL: %s cost %.6f != volatile cost %.6f\n",
                   variant.name, durable.map_cost(), session_cost);
      return 1;
    }
    std::printf("%-16s %.4fs/delta (logging overhead %+.1f%%), cost %.4f\n",
                variant.name, variant_avg, 100 * overhead,
                durable.map_cost());
    {
      BenchJson row("serving_durability");
      row.Str("dataset", ds.name)
          .Str("variant", variant.name)
          .Num("warm_seconds_avg", variant_avg, 5)
          .Num("logging_overhead_frac", overhead)
          .Num("session_cost", durable.map_cost())
          .Emit();
    }
    if (variant.fsync) {
      // Restart: throw the resident session away and rebuild it from the
      // newest snapshot + WAL suffix, as a crashed server would.
      std::vector<uint8_t> truth_before = durable.truth();
      // (The session object is still alive; Recover reads only disk.)
      Timer recover_timer;
      RecoveryStats rstats;
      auto recovered = InferenceSession::Recover(ds.program, dopts, nullptr,
                                                 &rstats);
      double recover_seconds = recover_timer.ElapsedSeconds();
      if (!recovered.ok()) {
        std::fprintf(stderr, "restart recovery failed: %s\n",
                     recovered.status().ToString().c_str());
        return 1;
      }
      bool identical = recovered.value()->truth() == truth_before &&
                       recovered.value()->map_cost() == session_cost;
      std::printf(
          "restart: recovered in %.4fs (snapshot %llu, %llu records "
          "replayed) — %s\n",
          recover_seconds, (unsigned long long)rstats.snapshot_seq,
          (unsigned long long)rstats.records_replayed,
          identical ? "bit-identical" : "MISMATCH");
      {
        BenchJson row("serving_durability");
        row.Str("dataset", ds.name)
            .Str("variant", "restart_snapshot_replay")
            .Num("recover_seconds", recover_seconds)
            .Int("records_replayed", rstats.records_replayed)
            .Num("open_seconds_cold", open_seconds)
            .Bool("bit_identical", identical)
            .Emit();
      }
      if (!identical) return 1;
    }
  }

  // ---------------------------------------------- observability lesion
  // The identical stream with instrumentation fully on (metrics + a
  // per-delta TraceBuilder, the net server's hot path) vs the kill
  // switch off and no tracing. Instrumentation reads clocks and bumps
  // atomics but never feeds back into inference, so the final truth
  // vector and MAP cost must be bit-identical; the per-delta overhead
  // is the observability budget (<5%, docs/OBSERVABILITY.md).
  PrintHeader("Observability lesion: metrics + tracing on vs off");
  double obs_avg[2] = {0.0, 0.0};
  double obs_cost[2] = {0.0, 0.0};
  std::vector<uint8_t> obs_truth[2];
  for (int enabled = 1; enabled >= 0; --enabled) {
    SetMetricsEnabled(enabled != 0);
    InferenceSession obs_session(ds.program, sopts);
    Status oopen = obs_session.Open(ds.evidence);
    if (!oopen.ok()) {
      std::fprintf(stderr, "obs lesion open failed: %s\n",
                   oopen.ToString().c_str());
      return 1;
    }
    Timer stream_timer;
    for (int d = 0; d < kDeltas; ++d) {
      TraceBuilder trace("bench");
      auto r = obs_session.ApplyDelta(deltas[d],
                                      enabled != 0 ? &trace : nullptr);
      if (!r.ok()) {
        std::fprintf(stderr, "obs lesion delta %d failed: %s\n", d,
                     r.status().ToString().c_str());
        return 1;
      }
    }
    obs_avg[enabled] = stream_timer.ElapsedSeconds() / kDeltas;
    obs_cost[enabled] = obs_session.map_cost();
    obs_truth[enabled] = obs_session.truth();
  }
  SetMetricsEnabled(true);
  const bool obs_identical = obs_truth[0] == obs_truth[1] &&
                             obs_cost[0] == obs_cost[1] &&
                             obs_cost[1] == session_cost;
  const double obs_overhead =
      obs_avg[0] > 0 ? (obs_avg[1] - obs_avg[0]) / obs_avg[0] : 0.0;
  std::printf(
      "obs on %.4fs/delta vs off %.4fs/delta (overhead %+.1f%%), "
      "cost %.4f vs %.4f — %s\n",
      obs_avg[1], obs_avg[0], 100 * obs_overhead, obs_cost[1], obs_cost[0],
      obs_identical ? "bit-identical" : "MISMATCH");
  {
    BenchJson row("serving_obs");
    row.Str("dataset", ds.name)
        .Num("warm_seconds_avg_on", obs_avg[1], 5)
        .Num("warm_seconds_avg_off", obs_avg[0], 5)
        .Num("overhead_frac", obs_overhead)
        .Bool("bit_identical", obs_identical)
        .Emit();
  }
  if (!obs_identical) {
    std::fprintf(stderr,
                 "FAIL: instrumentation changed inference results\n");
    return 1;
  }
  return 0;
}
