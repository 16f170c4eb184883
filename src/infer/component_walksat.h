#ifndef TUFFY_INFER_COMPONENT_WALKSAT_H_
#define TUFFY_INFER_COMPONENT_WALKSAT_H_

#include <cstdint>
#include <vector>

#include "infer/component_solver.h"
#include "infer/walksat.h"
#include "mrf/components.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace tuffy {

/// Options for component-aware search (Section 3.3).
struct ComponentSearchOptions {
  /// Total flip budget, divided across components proportionally to their
  /// atom counts ("weighted round-robin scheduling", Section 4.4).
  uint64_t total_flips = 1000000;
  /// Number of round-robin rounds the budget is split into; after each
  /// round a trace point (sum of per-component bests) is recorded.
  int rounds = 10;
  /// Worker threads (Section 3.3's parallelism; Table 7).
  int num_threads = 1;
  double p_random = 0.5;
  double hard_weight = 1e6;
  double timeout_seconds = std::numeric_limits<double>::infinity();
  /// Route components in the tractable fragment (infer/exact) to the
  /// exact linear-time solver instead of WalkSAT. Lesion toggle: off
  /// reproduces pure sampler behavior.
  bool use_exact = true;
};

struct ComponentSearchResult {
  /// Global best assignment (concatenated per-component bests).
  std::vector<uint8_t> truth;
  /// Per-atom marginals, when the solve asked for them.
  std::vector<double> marginals;
  /// Sum of per-component best costs.
  double cost = 0.0;
  uint64_t flips = 0;
  double seconds = 0.0;
  /// Components solved exactly (no flips spent on them).
  size_t exact_components = 0;
  std::vector<TracePoint> trace;
  /// Measured bytes of all simultaneously-resident search state (CSR
  /// arenas + per-searcher occurrence/delta arrays).
  size_t state_bytes = 0;

  double FlipsPerSecond() const {
    return seconds > 0 ? static_cast<double>(flips) / seconds : 0.0;
  }
};

/// Component-aware WalkSAT: each MRF component is searched independently
/// with its own best-state tracking, which by Theorem 3.1 can be
/// exponentially faster than whole-MRF WalkSAT. Components are scheduled
/// weighted-round-robin on a pool of options.num_threads workers, from
/// the seeds an engine Run with EngineOptions::seed = `seed` uses.
ComponentSearchResult RunComponentWalkSat(
    size_t num_atoms, const std::vector<GroundClause>& clauses,
    const ComponentSet& components, const ComponentSearchOptions& options,
    uint64_t seed);

/// RunComponentWalkSat's scheduler on a caller-owned `pool` (null =
/// inline), also run per FFD batch and for the marginal task by
/// TuffyEngine: a ComponentSolver for each component of `components`
/// that `batch` lists, read in place, its MC-SAT if asked, then `rounds`
/// round-robin rounds while `clock` < `timeout_seconds`. The solvers read
/// components.clauses as ids into `clauses`, or, when `batch_clauses` is
/// non-null, entry i of it for batch[i] (the loading lesion's
/// renumbered clause lists). Adds into `result`, scattering into
/// result->truth/marginals if sized.
void SolveComponents(const ComponentSolverOptions& options, int rounds,
                     double timeout_seconds,
                     const std::vector<GroundClause>& clauses,
                     const ComponentSet& components,
                     const std::vector<size_t>& batch,
                     const std::vector<std::vector<uint32_t>>* batch_clauses,
                     ThreadPool* pool, const Timer& clock,
                     ComponentSearchResult* result);

}  // namespace tuffy

#endif  // TUFFY_INFER_COMPONENT_WALKSAT_H_
