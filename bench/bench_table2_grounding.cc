// Table 2: grounding time (seconds), Alchemy (top-down, Prolog-style
// nested loops over unindexed evidence lists) vs Tuffy (bottom-up
// compilation to relational queries with a cost-based optimizer).
//
// Paper values:          LP    IE     RC      ER
//   Alchemy (top-down)   48    13     3,913   23,891
//   Tuffy  (bottom-up)   6     13     40      106
//
// The shape to reproduce: bottom-up never loses, and wins by orders of
// magnitude on join-heavy datasets (RC, ER, LP); IE is grounding-light so
// the two are comparable.
//
// A second section runs the executor lesion within bottom-up grounding:
// the tuple-at-a-time Volcano interpreter versus the columnar batch
// executor (and 4-thread grounding, morsels inside a rule), with the ground
// clause stores verified bit-identical across every configuration. Each
// configuration emits a BENCH_JSON line (rows = candidate bindings
// enumerated per second of total grounding wall time) so the grounding
// throughput trajectory is tracked across PRs like the flip rate is.

#include <cstring>

#include "bench/bench_common.h"
#include "ground/bottom_up_grounder.h"
#include "ground/top_down_grounder.h"
#include "util/timer.h"

using namespace tuffy;         // NOLINT
using namespace tuffy::bench;  // NOLINT

namespace {

/// Bit-identical comparison of two grounding results: same atoms in the
/// same order, same clauses in the same order, same weights/hardness.
bool SameGrounding(const GroundingResult& a, const GroundingResult& b) {
  if (a.atoms.num_atoms() != b.atoms.num_atoms()) return false;
  for (AtomId i = 0; i < a.atoms.num_atoms(); ++i) {
    if (!(a.atoms.atom(i) == b.atoms.atom(i))) return false;
  }
  if (a.clauses.num_clauses() != b.clauses.num_clauses()) return false;
  for (size_t i = 0; i < a.clauses.num_clauses(); ++i) {
    const GroundClause& ca = a.clauses.clauses()[i];
    const GroundClause& cb = b.clauses.clauses()[i];
    if (ca.lits != cb.lits || ca.weight != cb.weight || ca.hard != cb.hard) {
      return false;
    }
  }
  return a.fixed_cost == b.fixed_cost &&
         a.hard_contradiction == b.hard_contradiction;
}

struct LesionRun {
  GroundingResult result;
  double seconds = 0.0;
};

LesionRun RunLesion(const Dataset& ds, bool vectorized, int threads,
                    bool antijoin = true) {
  GroundingOptions gopts;
  gopts.num_threads = threads;
  OptimizerOptions oopts;
  oopts.enable_vectorized = vectorized;
  oopts.enable_antijoin_pruning = antijoin;
  Timer t;
  BottomUpGrounder grounder(ds.program, ds.evidence, gopts, oopts);
  auto r = grounder.Ground();
  LesionRun run;
  run.seconds = t.ElapsedSeconds();
  if (!r.ok()) {
    std::fprintf(stderr, "%s: grounding failed: %s\n", ds.name.c_str(),
                 r.status().ToString().c_str());
    std::exit(1);
  }
  run.result = r.TakeValue();
  return run;
}

/// One BENCH_JSON row. `morsels` counts the pieces grounding resolved
/// the rules in (GroundingStats::morsels); more morsels than `rules`
/// means at least one rule's driving scan was split.
void PrintGroundingJson(const Dataset& ds, const char* system,
                        const LesionRun& run, double speedup) {
  std::printf(
      "BENCH_JSON {\"bench\":\"table2_grounding\",\"dataset\":\"%s\","
      "\"system\":\"%s\",\"seconds\":%.4f,\"rows\":%llu,"
      "\"rows_per_sec\":%.1f,\"speedup_vs_volcano\":%.2f,"
      "\"pruned_by_antijoin\":%llu,\"ground_clauses\":%zu,"
      "\"rules\":%zu,\"morsels\":%llu}\n",
      ds.name.c_str(), system, run.seconds,
      static_cast<unsigned long long>(run.result.stats.candidates),
      static_cast<double>(run.result.stats.candidates) / run.seconds,
      speedup,
      static_cast<unsigned long long>(run.result.stats.pruned_by_antijoin),
      run.result.clauses.num_clauses(), ds.program.clauses().size(),
      static_cast<unsigned long long>(run.result.stats.morsels));
}

}  // namespace

int main(int argc, char** argv) {
  const bool skip_topdown = argc > 1 && std::strcmp(argv[1], "-lesion") == 0;

  if (!skip_topdown) {
    PrintHeader("Table 2: grounding time (seconds)");
    std::printf("%-10s %14s %14s %9s %14s\n", "dataset", "topdown(s)",
                "bottomup(s)", "speedup", "ground_clauses");
    std::vector<Dataset> datasets;
    datasets.push_back(GroundingScaleLp());
    datasets.push_back(BenchIe());
    datasets.push_back(GroundingScaleRc());
    datasets.push_back(BenchEr());
    for (const Dataset& ds : datasets) {
      Timer t1;
      TopDownGrounder td(ds.program, ds.evidence);
      auto rt = td.Ground();
      double td_seconds = t1.ElapsedSeconds();
      if (!rt.ok()) {
        std::fprintf(stderr, "%s\n", rt.status().ToString().c_str());
        return 1;
      }
      Timer t2;
      BottomUpGrounder bu(ds.program, ds.evidence);
      auto rb = bu.Ground();
      double bu_seconds = t2.ElapsedSeconds();
      if (!rb.ok()) {
        std::fprintf(stderr, "%s\n", rb.status().ToString().c_str());
        return 1;
      }
      if (rb.value().clauses.num_clauses() !=
          rt.value().clauses.num_clauses()) {
        std::fprintf(stderr, "%s: grounder mismatch (%zu vs %zu clauses)\n",
                     ds.name.c_str(), rb.value().clauses.num_clauses(),
                     rt.value().clauses.num_clauses());
        return 1;
      }
      std::printf("%-10s %14.3f %14.3f %8.1fx %14zu\n", ds.name.c_str(),
                  td_seconds, bu_seconds, td_seconds / bu_seconds,
                  rb.value().clauses.num_clauses());
    }
  }

  // ---- Executor lesion: Volcano vs columnar batch execution. ----
  PrintHeader(
      "Grounding executor lesion: Volcano vs vectorized (bit-identical)");
  std::printf("%-10s %12s %12s %12s %9s %14s\n", "dataset", "volcano(s)",
              "vec(s)", "vec-4t(s)", "speedup", "rows/s(vec)");
  std::vector<Dataset> lesion_datasets;
  lesion_datasets.push_back(GroundingScaleLp());
  lesion_datasets.push_back(GroundingScaleRc());
  lesion_datasets.push_back(GroundingVecScaleLp());
  lesion_datasets.back().name = "LP-XL";
  for (const Dataset& ds : lesion_datasets) {
    LesionRun volcano = RunLesion(ds, /*vectorized=*/false, /*threads=*/1);
    LesionRun vec = RunLesion(ds, /*vectorized=*/true, /*threads=*/1);
    LesionRun vec_mt = RunLesion(ds, /*vectorized=*/true, /*threads=*/4);
    if (!SameGrounding(volcano.result, vec.result)) {
      std::fprintf(stderr, "%s: vectorized grounding differs from Volcano\n",
                   ds.name.c_str());
      return 1;
    }
    if (!SameGrounding(vec.result, vec_mt.result)) {
      std::fprintf(stderr, "%s: 4-thread grounding differs from 1-thread\n",
                   ds.name.c_str());
      return 1;
    }
    const double speedup = volcano.seconds / vec.seconds;
    std::printf("%-10s %12.3f %12.3f %12.3f %8.2fx %14.0f\n",
                ds.name.c_str(), volcano.seconds, vec.seconds, vec_mt.seconds,
                speedup,
                static_cast<double>(vec.result.stats.candidates) /
                    vec.seconds);
    PrintGroundingJson(ds, "volcano", volcano, 1.0);
    PrintGroundingJson(ds, "vectorized", vec, speedup);
    PrintGroundingJson(ds, "vectorized_mt", vec_mt,
                       volcano.seconds / vec_mt.seconds);
  }

  // ---- Anti-join lesion: evidence-satisfaction pruning on vs off. The
  // default runs above prune; this re-runs with the anti-joins lesioned
  // out and verifies the ground store is bit-identical while the pruned
  // configuration resolves fewer rows (those rows never left the
  // executor).
  PrintHeader("Anti-join lesion: in-plan evidence pruning vs resolution");
  std::printf("%-10s %12s %12s %14s %14s\n", "dataset", "pruned(s)",
              "unpruned(s)", "rows_resolved", "rows_pruned");
  std::vector<Dataset> aj_datasets;
  aj_datasets.push_back(GroundingScaleLp());
  aj_datasets.push_back(GroundingScaleRc());
  for (const Dataset& ds : aj_datasets) {
    LesionRun pruned =
        RunLesion(ds, /*vectorized=*/true, /*threads=*/1, /*antijoin=*/true);
    LesionRun unpruned =
        RunLesion(ds, /*vectorized=*/true, /*threads=*/1, /*antijoin=*/false);
    if (!SameGrounding(pruned.result, unpruned.result)) {
      std::fprintf(stderr,
                   "%s: anti-join pruning changed the ground store\n",
                   ds.name.c_str());
      return 1;
    }
    if (pruned.result.stats.candidates +
            pruned.result.stats.pruned_by_antijoin !=
        unpruned.result.stats.candidates) {
      std::fprintf(stderr, "%s: pruned+resolved != unpruned resolved\n",
                   ds.name.c_str());
      return 1;
    }
    std::printf("%-10s %12.3f %12.3f %14llu %14llu\n", ds.name.c_str(),
                pruned.seconds, unpruned.seconds,
                static_cast<unsigned long long>(pruned.result.stats.candidates),
                static_cast<unsigned long long>(
                    pruned.result.stats.pruned_by_antijoin));
    PrintGroundingJson(ds, "antijoin_pruned", pruned,
                       unpruned.seconds / pruned.seconds);
    PrintGroundingJson(ds, "antijoin_lesion", unpruned, 1.0);
  }
  return 0;
}
