#include "infer/gauss_seidel.h"

#include "util/timer.h"

namespace tuffy {

GaussSeidelResult RunGaussSeidel(size_t num_atoms,
                                 const std::vector<GroundClause>& clauses,
                                 const PartitionResult& partitions,
                                 const GaussSeidelOptions& options,
                                 uint64_t seed) {
  Timer timer;
  Rng rng(seed);
  GaussSeidelResult result;

  // Random global start.
  result.truth.assign(num_atoms, 0);
  for (size_t i = 0; i < num_atoms; ++i) {
    result.truth[i] = rng.Bernoulli(0.5) ? 1 : 0;
  }

  Problem whole = MakeWholeProblem(num_atoms, clauses);
  std::vector<uint8_t> best_truth = result.truth;
  double best_cost = whole.EvalCost(result.truth, options.hard_weight);

  const size_t k = partitions.num_partitions();
  WalkSatOptions wopts;
  wopts.p_random = options.p_random;
  wopts.hard_weight = options.hard_weight;
  std::vector<uint8_t> init;  // reused across partitions and sweeps
  wopts.initial = &init;
  for (int sweep = 0; sweep < options.sweeps; ++sweep) {
    if (timer.ElapsedSeconds() > options.timeout_seconds) break;
    for (size_t i = 0; i < k; ++i) {
      // Rebuild the conditioned sub-problem: cut clauses see the current
      // values of atoms in other partitions.
      SubProblem sub = BuildConditionedSubProblem(
          clauses, partitions.clauses[i], partitions.cut_clauses,
          partitions.atoms[i], partitions.partition_of_atom,
          partitions.position_of_atom, static_cast<int32_t>(i), result.truth);
      // Seed the local search from the current global state.
      init.resize(sub.global_atom.size());
      for (size_t j = 0; j < sub.global_atom.size(); ++j) {
        init[j] = result.truth[sub.global_atom[j]];
      }
      WalkSat searcher(&sub.problem, wopts, &rng);
      searcher.RunFlips(options.flips_per_partition);
      result.flips += searcher.flips();
      const std::vector<uint8_t>& local_best = searcher.best_truth();
      for (size_t j = 0; j < sub.global_atom.size(); ++j) {
        result.truth[sub.global_atom[j]] = local_best[j];
      }
      if (timer.ElapsedSeconds() > options.timeout_seconds) break;
    }
    double cost = whole.EvalCost(result.truth, options.hard_weight);
    if (cost < best_cost) {
      best_cost = cost;
      best_truth = result.truth;
    }
    result.trace.push_back(
        TracePoint{timer.ElapsedSeconds(), result.flips, best_cost});
  }

  result.truth = best_truth;
  result.cost = best_cost;
  return result;
}

}  // namespace tuffy
