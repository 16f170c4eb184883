#include "infer/component_walksat.h"

#include <algorithm>
#include <memory>
#include <numeric>

namespace tuffy {

ComponentSearchResult RunComponentWalkSat(
    size_t num_atoms, const std::vector<GroundClause>& clauses,
    const ComponentSet& components, const ComponentSearchOptions& options,
    uint64_t seed) {
  Timer clock;
  ComponentSolverOptions sopts;
  sopts.total_flips = options.total_flips;
  sopts.mrf_atoms = num_atoms;
  sopts.seed = seed;
  sopts.p_random = options.p_random;
  sopts.hard_weight = options.hard_weight;
  sopts.use_exact = options.use_exact;
  std::unique_ptr<ThreadPool> pool = MakeWorkerPool(options.num_threads);
  ComponentSearchResult result;
  result.truth.assign(num_atoms, 0);
  std::vector<size_t> all(components.num_components());
  std::iota(all.begin(), all.end(), size_t{0});
  SolveComponents(sopts, std::max(1, options.rounds), options.timeout_seconds,
                  clauses, components, all, nullptr, pool.get(), clock,
                  &result);
  result.seconds = clock.ElapsedSeconds();
  return result;
}

void SolveComponents(const ComponentSolverOptions& options, int rounds,
                     double timeout_seconds,
                     const std::vector<GroundClause>& clauses,
                     const ComponentSet& components,
                     const std::vector<size_t>& batch,
                     const std::vector<std::vector<uint32_t>>* batch_clauses,
                     ThreadPool* pool, const Timer& clock,
                     ComponentSearchResult* result) {
  // Every solver stays resident until the merge; each task touches only
  // its own.
  std::vector<std::unique_ptr<ComponentSolver>> solvers(batch.size());
  {
    TaskGroup group(pool);
    for (size_t i = 0; i < solvers.size(); ++i) {
      group.Submit([&, i] {
        const size_t c = batch[i];
        solvers[i] = std::make_unique<ComponentSolver>(
            options, clauses,
            batch_clauses != nullptr ? (*batch_clauses)[i]
                                     : components.clauses[c],
            components.atoms[c], components.position_of_atom);
        solvers[i]->SampleMarginals();
      });
    }
  }
  for (int round = 0; round < rounds; ++round) {
    if (clock.ElapsedSeconds() > timeout_seconds) break;
    {
      TaskGroup group(pool);
      for (const std::unique_ptr<ComponentSolver>& s : solvers) {
        if (s->exact()) continue;
        ComponentSolver* solver = s.get();
        group.Submit([solver, round, rounds] {
          solver->SearchRound(round, rounds);
        });
      }
    }
    TracePoint point{clock.ElapsedSeconds(), result->flips, result->cost};
    for (const std::unique_ptr<ComponentSolver>& s : solvers) {
      point.flips += s->flips();
      point.cost += s->cost();
    }
    result->trace.push_back(point);
  }

  size_t state_bytes = 0;
  for (const std::unique_ptr<ComponentSolver>& s : solvers) {
    s->Scatter(result->truth.empty() ? nullptr : &result->truth,
               result->marginals.empty() ? nullptr : &result->marginals);
    result->cost += s->cost();
    result->flips += s->flips();
    result->exact_components += s->exact() ? 1 : 0;
    state_bytes += s->state_bytes();
  }
  result->state_bytes = std::max(result->state_bytes, state_bytes);
}

}  // namespace tuffy
