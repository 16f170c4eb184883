#ifndef TUFFY_RA_OPTIMIZER_H_
#define TUFFY_RA_OPTIMIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "ra/operators.h"
#include "ra/query.h"
#include "ra/vec_ops.h"
#include "util/result.h"

namespace tuffy {

/// Join algorithms the optimizer may choose from. Disabling algorithms
/// reproduces the paper's Table 6 lesion study ("fixed join algorithm" =
/// nested loop only).
struct OptimizerOptions {
  bool enable_hash_join = true;
  bool enable_merge_join = true;
  /// If true, joins tables in the order they appear in the query instead
  /// of cost-based greedy ordering ("fixed join order" lesion).
  bool fixed_join_order = false;
  /// If true, per-table filters stay above the joins (disables predicate
  /// pushdown). The default pushes filters onto the scans.
  bool disable_predicate_pushdown = false;
  /// If true (default), Plan additionally emits a columnar batch plan
  /// whenever every input relation's segments are narrow, every pushed
  /// filter fits the VecPredicate grammar, and no join step needs more
  /// than two key columns. Executors prefer vec_root when present; the
  /// Volcano plan remains the lesion baseline.
  bool enable_vectorized = true;
  /// Instruments the Volcano plan with per-operator timing so EXPLAIN
  /// output can include ANALYZE-style rows/time per operator. Batch
  /// operators are always instrumented (per-chunk cost is negligible).
  bool analyze = false;
  /// If true (default), the grounding compiler plans anti-joins against
  /// the evidence side tables so bindings whose clause is already
  /// satisfied by the evidence are pruned inside the query (Tuffy's
  /// satisfied-by-evidence SQL test). Disabling it is the Table-6-style
  /// lesion: every candidate flows to resolution, which then discards
  /// the satisfied ones — same ground store, more rows resolved. The
  /// flag gates AntiJoinRef *generation* (BuildRuleBindingQuery); Plan
  /// always lowers whatever refs a query carries.
  bool enable_antijoin_pruning = true;
};

/// The optimized physical plan plus EXPLAIN-style metadata.
struct OptimizedPlan {
  PhysicalOpPtr root;
  /// Equivalent columnar batch plan, or null when the query does not
  /// qualify (see OptimizerOptions::enable_vectorized). Produces the
  /// same rows in the same order as `root`.
  VecOpPtr vec_root;
  /// Join order as indices into query.tables.
  std::vector<int> join_order;
  /// Human-readable operator tree, one operator per line.
  std::string explain;

  bool vectorized() const { return vec_root != nullptr; }
};

/// A System R-lite optimizer for conjunctive queries: estimates
/// cardinalities from table statistics, picks a greedy left-deep join
/// order that minimizes intermediate sizes, pushes filters to the scans,
/// and selects hash / sort-merge / nested-loop join per edge.
class Optimizer {
 public:
  explicit Optimizer(OptimizerOptions options = {}) : options_(options) {}

  /// Consumes `query` (filters are moved into the plan).
  Result<OptimizedPlan> Plan(ConjunctiveQuery query) const;

  /// Estimated output cardinality of `query` (exposed for tests).
  double EstimateCardinality(const ConjunctiveQuery& query) const;

 private:
  double EstimateFilteredRows(const TableRef& ref) const;

  OptimizerOptions options_;
};

}  // namespace tuffy

#endif  // TUFFY_RA_OPTIMIZER_H_
