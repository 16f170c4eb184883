#ifndef TUFFY_INFER_MCSAT_H_
#define TUFFY_INFER_MCSAT_H_

#include <cstdint>
#include <vector>

#include "ground/rule_count_index.h"
#include "infer/problem.h"
#include "infer/walksat.h"
#include "util/rng.h"

namespace tuffy {

/// Draws a (near-uniform) satisfying assignment of `problem`, whose
/// clauses are all treated as hard constraints: SampleSAT (Wei et al.),
/// WalkSAT moves mixed half and half with simulated-annealing moves, for
/// at most 100000 flips. Starts from a *random* assignment — the random
/// restart plus the annealing moves are what make successive MC-SAT
/// samples mix. Returns true on success and writes the sample to `out`.
/// The constraints are staged into one unit-weight copy of the problem's
/// clauses.
bool SampleSat(const Problem& problem, Rng* rng, std::vector<uint8_t>* out);

struct McSatOptions {
  int num_samples = 200;
  int burn_in = 20;
  double hard_weight = 1e6;
  /// If non-null, per-first-order-formula satisfied-grounding counts are
  /// accumulated over the kept samples (mean and variance land in
  /// McSatResult) — the E[n_i] / Var[n_i] statistics weight learning
  /// consumes. The index must be built over the same clause ids as
  /// `problem` and outlive the run. The accumulation rides the
  /// per-round slice-construction scan, which already evaluates every
  /// clause's truth; only the final sample costs one extra scan.
  const RuleCountIndex* count_index = nullptr;
};

struct McSatResult {
  /// Estimated marginal probability P(atom = true) per atom.
  std::vector<double> marginals;
  int samples_used = 0;
  /// Per-rule mean / variance of the satisfied-grounding count over the
  /// kept samples (empty unless McSatOptions::count_index was set).
  std::vector<double> formula_count_mean;
  std::vector<double> formula_count_var;
};

/// MC-SAT (Poon & Domingos; Appendix A.5): slice sampling over clause
/// subsets. Each round picks a random subset M of the clauses satisfied
/// by the current state (clause with weight w joins M with probability
/// 1 - e^-|w|; hard clauses always join; a *violated* negative-weight
/// clause contributes the negations of its literals as unit constraints),
/// then SampleSAT draws a near-uniform satisfying assignment of M.
McSatResult RunMcSat(const Problem& problem, const McSatOptions& options,
                     uint64_t seed);

}  // namespace tuffy

#endif  // TUFFY_INFER_MCSAT_H_
