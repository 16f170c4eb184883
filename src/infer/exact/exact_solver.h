#ifndef TUFFY_INFER_EXACT_EXACT_SOLVER_H_
#define TUFFY_INFER_EXACT_EXACT_SOLVER_H_

#include <cstdint>
#include <vector>

#include "infer/exact/tractable.h"
#include "infer/problem.h"

namespace tuffy {

/// Output of TrySolveExact. When `solved`, `truth`/`map_cost` are the
/// globally optimal MAP assignment and its EvalCost; `log_z` and
/// `marginals` (both computed only when marginals are requested) are
/// exact under the MLN distribution Pr[I] ∝ exp(-soft cost),
/// hard-violating worlds excluded — the same convention as
/// infer/brute_force.
struct ExactSolveResult {
  bool solved = false;
  ExactFragment fragment = ExactFragment::kNotTractable;

  std::vector<uint8_t> truth;
  double map_cost = 0.0;

  /// ln Z; `log_z_valid` is set when marginals were requested and solved.
  double log_z = 0.0;
  bool log_z_valid = false;

  /// Per-atom P(atom = true); empty unless want_marginals.
  std::vector<double> marginals;
};

/// Attempts an exact solve of `problem` by bucket elimination along the
/// min-fill order AnalyzeTractable builds, in time linear in the size ×
/// 2^width. Returns solved=false (with `fragment` saying why-not when
/// detection failed) when the component is outside the tractable
/// fragment, when a conditioned MAP optimum still violates a hard clause
/// (conditioning is then no longer provably optimal), or when marginals
/// are requested but no world satisfies the hard clauses (Z = 0). A
/// MAP-only solve skips the sum-product passes. Deterministic: identical
/// inputs produce bit-identical outputs regardless of thread count.
/// Records search.exact.* metrics.
ExactSolveResult TrySolveExact(const Problem& problem, double hard_weight,
                               bool want_marginals);

}  // namespace tuffy

#endif  // TUFFY_INFER_EXACT_EXACT_SOLVER_H_
