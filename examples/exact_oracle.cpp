// Exact inference for tractable components (docs/INFERENCE_EXACT.md):
// generate randomized tractable MRFs (forests, and partial 2- and 3-trees),
// solve every component with the bounded-width exact solver, cross-check
// MAP cost / marginals / ln Z against brute-force enumeration, and show
// the engine-level lesion — exact fast path on vs off lands on the same
// cost, with the exact run spending zero flips on tractable components.
//
// Run:  ./build/exact_oracle

#include <cmath>
#include <cstdio>

#include "datagen/datasets.h"
#include "infer/brute_force.h"
#include "infer/component_walksat.h"
#include "infer/exact/exact_solver.h"
#include "infer/problem.h"
#include "mrf/components.h"

using namespace tuffy;  // NOLINT: example brevity

namespace {

constexpr double kHardWeight = 1e6;

/// Checks every component of one generated program against brute force,
/// then the lesion; prints the first mismatch and returns false on it.
bool CheckProgram(int width, uint64_t seed, size_t* components_checked) {
  TractableMrfParams params;
  params.num_components = 4;
  params.max_atoms = 8;
  params.conditioned_prob = seed % 2 == 0 ? 0.5 : 0.0;
  params.max_width = width;
  params.seed = seed;
  size_t num_atoms = 0;
  std::vector<GroundClause> clauses = MakeTractableMrf(params, &num_atoms);
  ComponentSet comps = DetectComponents(num_atoms, clauses);
  const unsigned long long s = seed;

  for (size_t c = 0; c < comps.num_components(); ++c) {
    SubProblem sub = BuildSubProblem(clauses, comps.clauses[c], comps.atoms[c],
                                     comps.position_of_atom);
    ExactSolveResult ex = TrySolveExact(sub.problem, kHardWeight, true);
    if (!ex.solved) {
      std::fprintf(stderr, "width %d seed %llu comp %zu: not solved (%s)\n",
                   width, s, c, ExactFragmentName(ex.fragment));
      return false;
    }
    auto map = ExactMap(sub.problem, kHardWeight);
    auto marg = ExactMarginals(sub.problem);
    auto lz = ExactLogZ(sub.problem);
    if (!map.ok() || !marg.ok() || !lz.ok()) {
      std::fprintf(stderr,
                   "brute force failed on width %d seed %llu comp %zu\n",
                   width, s, c);
      return false;
    }
    bool bad = ex.map_cost != map.value().cost ||
               std::fabs(ex.log_z - lz.value()) > 1e-9;
    for (size_t a = 0; a < marg.value().size(); ++a) {
      bad = bad || std::fabs(ex.marginals[a] - marg.value()[a]) > 1e-9;
    }
    if (bad) {
      std::fprintf(stderr,
                   "mismatch on width %d seed %llu comp %zu: exact cost %.6f "
                   "vs brute %.6f\n",
                   width, s, c, ex.map_cost, map.value().cost);
      return false;
    }
    ++*components_checked;
  }

  // Lesion: pure-sampler search over the same MRF reaches the same
  // total cost, while the exact run spends zero flips.
  ComponentSearchOptions copts;
  copts.total_flips = 400000;
  copts.hard_weight = kHardWeight;
  copts.use_exact = false;
  ComponentSearchResult sampler =
      RunComponentWalkSat(num_atoms, clauses, comps, copts, seed);
  copts.use_exact = true;
  ComponentSearchResult exact =
      RunComponentWalkSat(num_atoms, clauses, comps, copts, seed);
  if (exact.cost != sampler.cost || exact.flips != 0 ||
      exact.exact_components != comps.num_components()) {
    std::fprintf(stderr,
                 "lesion mismatch on width %d seed %llu: exact cost %.6f "
                 "flips %llu vs sampler cost %.6f\n",
                 width, s, exact.cost,
                 static_cast<unsigned long long>(exact.flips), sampler.cost);
    return false;
  }
  return true;
}

}  // namespace

int main() {
  size_t components_checked = 0;
  for (int width = 1; width <= 3; ++width) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      if (!CheckProgram(width, seed, &components_checked)) return 1;
    }
  }
  std::printf("checked %zu components against brute force\n",
              components_checked);
  std::printf("exact oracle smoke OK\n");
  return 0;
}
