// Figure 8 + Theorem 3.1: the Example-1 MRF (N independent two-atom
// components). Two experiments:
//
//  (a) Figure 8: time-cost curves of whole-MRF WalkSAT ("Alchemy" and
//      "Tuffy-p") vs component-aware WalkSAT ("Tuffy") with N = 1000.
//      Component-aware search snaps to the optimum (cost N) while the
//      whole-MRF searchers plateau above it.
//
//  (b) Theorem 3.1 scaling: expected flips for WalkSAT to *hit* the
//      optimum on the whole MRF grows exponentially in N, while the
//      component-aware searcher grows linearly (per-component hitting
//      time is O(1), Example 1 gives E[hit] <= 4 per component).

#include "bench/bench_common.h"
#include "infer/component_walksat.h"
#include "mrf/components.h"

using namespace tuffy;         // NOLINT
using namespace tuffy::bench;  // NOLINT

namespace {

/// Flips until the whole-MRF searcher first reaches cost == n (optimal),
/// capped at `max_flips`.
uint64_t WholeMrfHittingFlips(int n, uint64_t max_flips, uint64_t seed) {
  std::vector<GroundClause> clauses = MakeExample1Mrf(n);
  Problem whole = MakeWholeProblem(2 * n, clauses);
  WalkSatOptions opts;
  Rng rng(seed);
  WalkSat search(&whole, opts, &rng);
  const double optimum = static_cast<double>(n);
  uint64_t done = 0;
  while (done < max_flips && search.best_cost() > optimum + 1e-9) {
    done += search.RunFlips(64);
    if (search.best_cost() <= optimum + 1e-9) break;
    if (done > 0 && search.flips() < done) break;  // no violated clauses
  }
  return done;
}

uint64_t ComponentHittingFlips(int n, uint64_t max_flips, uint64_t seed) {
  // Component-aware search knows each component's best independently;
  // count the flips until every per-component best reaches its optimum
  // (cost 1 for Example 1: the negative clause stays violated).
  std::vector<GroundClause> clauses = MakeExample1Mrf(n);
  ComponentSet cs = DetectComponents(2 * n, clauses);
  uint64_t total = 0;
  for (size_t i = 0; i < cs.num_components(); ++i) {
    SubProblem sub = BuildSubProblem(clauses, cs.clauses[i], cs.atoms[i],
                                     cs.position_of_atom);
    WalkSatOptions opts;
    Rng rng(seed * 1315423911u + i);
    WalkSat search(&sub.problem, opts, &rng);
    while (search.best_cost() > 1.0 + 1e-9 && total < max_flips) {
      total += search.RunFlips(1);
    }
  }
  return total;
}

}  // namespace

int main() {
  PrintHeader("Figure 8: Example 1 with 1000 components");
  {
    const int n = 1000;
    std::vector<GroundClause> clauses = MakeExample1Mrf(n);
    Problem whole = MakeWholeProblem(2 * n, clauses);

    for (const char* name : {"Alchemy", "Tuffy-p"}) {
      WalkSatOptions opts;
      opts.max_flips = 2000000;
      opts.trace_every_flips = 50000;
      Rng rng(name[0]);
      WalkSatResult r = WalkSat(&whole, opts, &rng).Run();
      PrintTrace(std::string("Ex1/") + name, r.trace, 0.0, 0.0);
      std::printf("# %s final cost %.0f (optimum %d)\n", name, r.best_cost,
                  n);
    }
    ComponentSet cs = DetectComponents(2 * n, clauses);
    ComponentSearchOptions copts;
    copts.total_flips = 2000000;
    copts.rounds = 20;
    ComponentSearchResult r =
        RunComponentWalkSat(2 * n, clauses, cs, copts, 7);
    PrintTrace("Ex1/Tuffy", r.trace, 0.0, 0.0);
    std::printf("# Tuffy final cost %.0f (optimum %d)\n", r.cost, n);
  }

  PrintHeader("Theorem 3.1: hitting-time scaling on Example 1");
  std::printf("%-6s %18s %18s\n", "N", "whole_MRF_flips",
              "component_flips");
  const uint64_t kCap = 20000000;
  for (int n : {2, 4, 6, 8, 10, 12, 14}) {
    // Average a few trials; the whole-MRF hitting time is a heavy-tailed
    // random variable.
    uint64_t whole_total = 0, comp_total = 0;
    const int kTrials = 5;
    for (int t = 0; t < kTrials; ++t) {
      whole_total += WholeMrfHittingFlips(n, kCap, 100 + t);
      comp_total += ComponentHittingFlips(n, kCap, 200 + t);
    }
    std::printf("%-6d %18.0f %18.0f\n", n,
                static_cast<double>(whole_total) / kTrials,
                static_cast<double>(comp_total) / kTrials);
  }
  std::printf(
      "\nShape check vs Theorem 3.1: whole-MRF flips grow exponentially\n"
      "with the component count (the 2^N check-and-balance effect);\n"
      "component-aware flips grow linearly.\n");
  return 0;
}
