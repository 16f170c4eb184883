#ifndef TUFFY_INFER_COMPONENT_SOLVER_H_
#define TUFFY_INFER_COMPONENT_SOLVER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "infer/exact/exact_solver.h"
#include "infer/walksat.h"

namespace tuffy {

/// Knobs shared by the components of one solve. A batch Run and a
/// session's cold start are epoch 0; a session's n-th delta is epoch n.
struct ComponentSolverOptions {
  uint64_t total_flips = 1000000;  // of the whole MRF
  size_t mrf_atoms = 1;
  uint64_t seed = 42;
  uint64_t epoch = 0;
  double p_random = 0.5;
  double hard_weight = 1e6;
  bool use_exact = true;   // the exact_fast_path lesion toggle
  bool marginals = false;  // exact, or by MC-SAT
  int mcsat_samples = 200;
  int mcsat_burn_in = 20;
};

/// Solves one MRF component (Section 3.3): the one place that picks the
/// exact solver or the samplers and derives the component's flip budget,
/// max(1, total_flips × its atoms / mrf_atoms), and seeds, DeriveSeed(b,
/// smallest atom) with b = DeriveSeed(seed, 2·epoch) for WalkSAT and
/// DeriveSeed(seed, 2·epoch + 1) for MC-SAT. None depends on thread
/// count, scheduling order, or batching.
class ComponentSolver {
 public:
  /// Builds the sub-problem of `clauses[clause_ids]` over the ascending
  /// global `atoms`, numbered by their positions in `atoms`
  /// (`position_of_atom`, see BuildSubProblem), and tries the exact
  /// solver. A later search starts from `warm_truth` (by global atom id),
  /// or at random if null.
  ComponentSolver(const ComponentSolverOptions& options,
                  const std::vector<GroundClause>& clauses,
                  const std::vector<uint32_t>& clause_ids,
                  const std::vector<AtomId>& atoms,
                  const std::vector<uint32_t>& position_of_atom,
                  const std::vector<uint8_t>* warm_truth = nullptr);
  // The searcher points into this object.
  ComponentSolver(const ComponentSolver&) = delete;
  ComponentSolver& operator=(const ComponentSolver&) = delete;

  /// WalkSAT over share `round` of `rounds` equal shares of the budget
  /// (the last takes the remainder), resuming the search; exact: no-op.
  void SearchRound(int round, int rounds);
  /// MC-SAT marginals; false, doing nothing, if exact or not asked.
  bool SampleMarginals();

  bool exact() const { return exact_.has_value(); }
  double cost() const;  // best so far
  uint64_t flips() const;
  size_t state_bytes() const;  // CSR arena + searcher
  /// Writes the best truth and the marginals, where there are any, by
  /// global atom id; either vector may be null.
  void Scatter(std::vector<uint8_t>* truth,
               std::vector<double>* marginals) const;

 private:
  ComponentSolverOptions options_;
  SubProblem sub_;
  uint64_t budget_;
  Rng rng_;
  std::optional<ExactSolveResult> exact_;
  std::vector<double> marginals_;  // MC-SAT's
  std::vector<uint8_t> warm_;      // the searcher's options point at it
  std::unique_ptr<WalkSat> search_;
};

}  // namespace tuffy

#endif  // TUFFY_INFER_COMPONENT_SOLVER_H_
