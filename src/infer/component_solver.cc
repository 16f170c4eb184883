#include "infer/component_solver.h"

#include <algorithm>

#include "infer/mcsat.h"

namespace tuffy {

ComponentSolver::ComponentSolver(const ComponentSolverOptions& options,
                                 const std::vector<GroundClause>& clauses,
                                 const std::vector<uint32_t>& clause_ids,
                                 const std::vector<AtomId>& atoms,
                                 const std::vector<uint32_t>& position_of_atom,
                                 const std::vector<uint8_t>* warm_truth)
    : options_(options),
      sub_(BuildSubProblem(clauses, clause_ids, atoms, position_of_atom)),
      budget_(std::max<uint64_t>(
          1, options.total_flips * atoms.size() /
                 std::max<size_t>(options.mrf_atoms, 1))),
      rng_(DeriveSeed(DeriveSeed(options.seed, 2 * options.epoch), atoms[0])) {
  if (options.use_exact) {
    ExactSolveResult ex =
        TrySolveExact(sub_.problem, options.hard_weight, options.marginals);
    if (ex.solved) exact_ = std::move(ex);
  }
  if (!exact_ && warm_truth != nullptr) {
    for (AtomId a : atoms) warm_.push_back((*warm_truth)[a]);
  }
}

void ComponentSolver::SearchRound(int round, int rounds) {
  if (exact_) return;
  if (search_ == nullptr) {
    WalkSatOptions wopts;
    wopts.p_random = options_.p_random;
    wopts.hard_weight = options_.hard_weight;
    if (!warm_.empty()) wopts.initial = &warm_;
    search_ = std::make_unique<WalkSat>(&sub_.problem, wopts, &rng_);
  }
  uint64_t chunk = budget_ / rounds;
  if (round == rounds - 1) chunk = budget_ - chunk * (rounds - 1);
  if (chunk > 0) search_->RunFlips(chunk);
}

bool ComponentSolver::SampleMarginals() {
  if (exact_ || !options_.marginals) return false;
  McSatOptions mopts;
  mopts.num_samples = options_.mcsat_samples;
  mopts.burn_in = options_.mcsat_burn_in;
  mopts.hard_weight = options_.hard_weight;
  const uint64_t base = DeriveSeed(options_.seed, 2 * options_.epoch + 1);
  marginals_ =
      RunMcSat(sub_.problem, mopts, DeriveSeed(base, sub_.global_atom[0]))
          .marginals;
  return true;
}

double ComponentSolver::cost() const {
  if (exact_) return exact_->map_cost;
  return search_ != nullptr ? search_->best_cost() : 0.0;
}

uint64_t ComponentSolver::flips() const {
  return search_ != nullptr ? search_->flips() : 0;
}

size_t ComponentSolver::state_bytes() const {
  if (search_ == nullptr) return 0;
  return sub_.problem.EstimateBytes() + search_->state_bytes();
}

void ComponentSolver::Scatter(std::vector<uint8_t>* truth,
                              std::vector<double>* marginals) const {
  const std::vector<uint8_t>* best =
      exact_ ? &exact_->truth : search_ ? &search_->best_truth() : nullptr;
  const std::vector<double>& marg = exact_ ? exact_->marginals : marginals_;
  for (size_t i = 0; i < sub_.global_atom.size(); ++i) {
    const AtomId a = sub_.global_atom[i];
    if (truth != nullptr && best != nullptr) (*truth)[a] = (*best)[i];
    if (marginals != nullptr && !marg.empty()) (*marginals)[a] = marg[i];
  }
}

}  // namespace tuffy
