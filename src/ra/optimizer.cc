#include "ra/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/string_util.h"

namespace tuffy {

namespace {

/// Per-column distinct-value estimate, falling back to the row count
/// when ANALYZE found no values.
double DistinctEstimate(const TableRef& ref, int col) {
  const uint64_t distinct = ref.stats->columns[col].num_distinct;
  if (distinct > 0) return static_cast<double>(distinct);
  return std::max<double>(1.0, static_cast<double>(ref.stats->num_rows));
}

/// Lowers a pushed-down scan filter into VecPredicates. Handles exactly
/// the grammar the grounding compiler emits — conjunctions of col = const
/// and col = col equalities; anything else keeps the query on the
/// Volcano path.
bool TryLowerPredicate(const Expr* e, std::vector<VecPredicate>* out) {
  if (const auto* a = dynamic_cast<const AndExpr*>(e)) {
    for (const ExprPtr& child : a->children()) {
      if (!TryLowerPredicate(child.get(), out)) return false;
    }
    return true;
  }
  if (const auto* c = dynamic_cast<const CompareExpr*>(e)) {
    if (c->op() != CompareOp::kEq) return false;
    const auto* lcol = dynamic_cast<const ColumnRefExpr*>(c->lhs());
    const auto* rcol = dynamic_cast<const ColumnRefExpr*>(c->rhs());
    const auto* llit = dynamic_cast<const LiteralExpr*>(c->lhs());
    const auto* rlit = dynamic_cast<const LiteralExpr*>(c->rhs());
    if (lcol != nullptr && rcol != nullptr) {
      out->push_back(VecPredicate::EqCols(lcol->index(), rcol->index()));
      return true;
    }
    if (lcol != nullptr && rlit != nullptr && rlit->value().is_int64()) {
      out->push_back(VecPredicate::EqConst(lcol->index(),
                                           rlit->value().int64()));
      return true;
    }
    if (rcol != nullptr && llit != nullptr && llit->value().is_int64()) {
      out->push_back(VecPredicate::EqConst(rcol->index(),
                                           llit->value().int64()));
      return true;
    }
    return false;
  }
  return false;
}

}  // namespace

double Optimizer::EstimateFilteredRows(const TableRef& ref) const {
  double rows = static_cast<double>(ref.stats->num_rows);
  return std::max(1.0, rows * ref.selectivity);
}

double Optimizer::EstimateCardinality(const ConjunctiveQuery& query) const {
  double card = 1.0;
  for (const TableRef& ref : query.tables) card *= EstimateFilteredRows(ref);
  for (const JoinCondition& jc : query.joins) {
    double dl = DistinctEstimate(query.tables[jc.left_table], jc.left_col);
    double dr = DistinctEstimate(query.tables[jc.right_table], jc.right_col);
    card /= std::max(dl, dr);
  }
  return std::max(1.0, card);
}

Result<OptimizedPlan> Optimizer::Plan(ConjunctiveQuery query) const {
  if (query.tables.empty()) {
    return Status::InvalidArgument("query has no tables");
  }
  const size_t n = query.tables.size();
  for (const TableRef& ref : query.tables) {
    if (ref.stats == nullptr) {
      return Status::InvalidArgument(
          StrFormat("relation %s has no ANALYZE stats", ref.label.c_str()));
    }
    for (const IdTable* seg : ref.segments) {
      if (seg == nullptr ||
          (seg->num_rows() > 0 && seg->num_cols() != ref.num_cols())) {
        return Status::InvalidArgument(StrFormat(
            "relation %s has a segment of the wrong shape", ref.label.c_str()));
      }
    }
  }

  // Estimated cardinality of each base ref after filter pushdown.
  std::vector<double> base_rows(n);
  for (size_t i = 0; i < n; ++i) {
    base_rows[i] = EstimateFilteredRows(query.tables[i]);
  }

  // ---- Join-order selection (greedy left-deep, System R flavor). ----
  std::vector<int> order;
  std::vector<bool> placed(n, false);
  if (options_.fixed_join_order) {
    for (size_t i = 0; i < n; ++i) order.push_back(static_cast<int>(i));
  } else {
    // Start from the cheapest filtered relation.
    int first = 0;
    for (size_t i = 1; i < n; ++i) {
      if (base_rows[i] < base_rows[first]) first = static_cast<int>(i);
    }
    order.push_back(first);
    placed[first] = true;
    double cur_rows = base_rows[first];
    for (size_t step = 1; step < n; ++step) {
      int best = -1;
      double best_rows = std::numeric_limits<double>::infinity();
      bool best_connected = false;
      for (size_t cand = 0; cand < n; ++cand) {
        if (placed[cand]) continue;
        // Estimate |cur ⋈ cand| using all join conditions between the
        // placed set and cand.
        double est = cur_rows * base_rows[cand];
        bool connected = false;
        for (const JoinCondition& jc : query.joins) {
          int a = jc.left_table, b = jc.right_table;
          int other = -1, other_col = -1, cand_col = -1;
          if (a == static_cast<int>(cand) && placed[b]) {
            other = b;
            other_col = jc.right_col;
            cand_col = jc.left_col;
          } else if (b == static_cast<int>(cand) && placed[a]) {
            other = a;
            other_col = jc.left_col;
            cand_col = jc.right_col;
          } else {
            continue;
          }
          connected = true;
          double dl = DistinctEstimate(query.tables[other], other_col);
          double dr = DistinctEstimate(query.tables[cand], cand_col);
          est /= std::max(1.0, std::max(dl, dr));
        }
        // Prefer connected joins over cross products at any cost.
        if ((connected && !best_connected) ||
            (connected == best_connected && est < best_rows)) {
          best = static_cast<int>(cand);
          best_rows = est;
          best_connected = connected;
        }
      }
      order.push_back(best);
      placed[best] = true;
      cur_rows = std::max(1.0, best_rows);
    }
    std::fill(placed.begin(), placed.end(), false);
  }

  // ---- Vectorized eligibility (inspected before filters are moved
  // into the Volcano plan below). Lesion configurations that disable
  // hash joins or predicate pushdown must stay on the Volcano operators
  // they are studying; a fixed join order, by contrast, carries over
  // (the batch plan honors the same order).
  bool vec_ok = options_.enable_vectorized && options_.enable_hash_join &&
                !options_.disable_predicate_pushdown;
  std::vector<std::vector<VecPredicate>> scan_preds(n);
  for (size_t t = 0; vec_ok && t < n; ++t) {
    const TableRef& ref = query.tables[t];
    for (const IdTable* seg : ref.segments) {
      if (!seg->narrow()) vec_ok = false;
    }
    if (ref.filter != nullptr &&
        !TryLowerPredicate(ref.filter.get(), &scan_preds[t])) {
      vec_ok = false;
    }
  }

  // ---- Step schedule shared by both physical translations: join keys
  // and cycle residuals per step, plus each table's column offset in the
  // concatenated join row. ----
  struct StepJoin {
    std::vector<JoinKey> keys;
    /// Absolute column pairs of join conditions not usable as keys.
    std::vector<std::pair<int, int>> cycles;
  };
  std::vector<StepJoin> steps(order.size());
  std::vector<int> col_offset(n, -1);
  std::vector<bool> join_applied(query.joins.size(), false);
  {
    int t0 = order[0];
    col_offset[t0] = 0;
    int total_cols = static_cast<int>(query.tables[t0].num_cols());
    placed[t0] = true;
    for (size_t step = 1; step < order.size(); ++step) {
      int t = order[step];
      for (size_t j = 0; j < query.joins.size(); ++j) {
        if (join_applied[j]) continue;
        const JoinCondition& jc = query.joins[j];
        if (jc.left_table == t && placed[jc.right_table]) {
          steps[step].keys.push_back(
              JoinKey{col_offset[jc.right_table] + jc.right_col, jc.left_col});
          join_applied[j] = true;
        } else if (jc.right_table == t && placed[jc.left_table]) {
          steps[step].keys.push_back(
              JoinKey{col_offset[jc.left_table] + jc.left_col, jc.right_col});
          join_applied[j] = true;
        }
      }
      col_offset[t] = total_cols;
      total_cols += static_cast<int>(query.tables[t].num_cols());
      placed[t] = true;
      // Join conditions whose both sides are now placed but which were
      // not usable as keys (cycles in the join graph).
      for (size_t j = 0; j < query.joins.size(); ++j) {
        if (join_applied[j]) continue;
        const JoinCondition& jc = query.joins[j];
        if (placed[jc.left_table] && placed[jc.right_table]) {
          steps[step].cycles.emplace_back(
              col_offset[jc.left_table] + jc.left_col,
              col_offset[jc.right_table] + jc.right_col);
          join_applied[j] = true;
        }
      }
      // The packed-key batch join handles at most two key columns.
      if (steps[step].keys.size() > 2) vec_ok = false;
    }
  }

  // ---- Volcano plan construction. ----
  std::string explain;
  auto make_scan = [&](int t) -> PhysicalOpPtr {
    TableRef& ref = query.tables[t];
    PhysicalOpPtr op = std::make_unique<SeqScanOp>(ref);
    if (ref.filter != nullptr && !options_.disable_predicate_pushdown) {
      op = std::make_unique<FilterOp>(std::move(op), std::move(ref.filter));
    }
    return op;
  };

  int t0 = order[0];
  PhysicalOpPtr root = make_scan(t0);
  explain += StrFormat("Scan %s (est_rows=%.0f)\n",
                       query.tables[t0].label.c_str(), base_rows[t0]);

  for (size_t step = 1; step < order.size(); ++step) {
    int t = order[step];
    PhysicalOpPtr right = make_scan(t);
    const std::vector<JoinKey>& keys = steps[step].keys;

    const char* algo;
    if (keys.empty()) {
      root = std::make_unique<NestedLoopJoinOp>(std::move(root),
                                                std::move(right), keys);
      algo = "NestedLoop(cross)";
    } else if (options_.enable_hash_join) {
      root = std::make_unique<HashJoinOp>(std::move(root), std::move(right),
                                          keys);
      algo = "HashJoin";
    } else if (options_.enable_merge_join) {
      root = std::make_unique<SortMergeJoinOp>(std::move(root),
                                               std::move(right), keys);
      algo = "SortMergeJoin";
    } else {
      root = std::make_unique<NestedLoopJoinOp>(std::move(root),
                                                std::move(right), keys);
      algo = "NestedLoopJoin";
    }
    explain += StrFormat("%s with %s (keys=%zu)\n", algo,
                         query.tables[t].label.c_str(), keys.size());

    if (!steps[step].cycles.empty()) {
      std::vector<ExprPtr> residuals;
      for (const auto& [a, b] : steps[step].cycles) {
        residuals.push_back(Eq(Col(a), Col(b)));
      }
      size_t count = residuals.size();
      root = std::make_unique<FilterOp>(std::move(root),
                                        And(std::move(residuals)));
      explain += StrFormat("Filter (%zu cycle conditions)\n", count);
    }
  }

  // Filters that were not pushed down (lesion mode): hoist each base-table
  // predicate above the join tree, rebound to the table's column range.
  if (options_.disable_predicate_pushdown) {
    std::vector<ExprPtr> top_filters;
    for (size_t t = 0; t < n; ++t) {
      TableRef& ref = query.tables[t];
      if (ref.filter == nullptr) continue;
      int width = static_cast<int>(ref.num_cols());
      top_filters.push_back(std::make_unique<ShiftExpr>(
          std::move(ref.filter), col_offset[t], width));
    }
    if (!top_filters.empty()) {
      size_t count = top_filters.size();
      root = std::make_unique<FilterOp>(std::move(root),
                                        And(std::move(top_filters)));
      explain += StrFormat("Filter (%zu hoisted predicates)\n", count);
    }
  }

  // Final projection.
  std::vector<int> out_cols;
  std::vector<std::string> out_names;
  for (const OutputCol& oc : query.outputs) {
    out_cols.push_back(col_offset[oc.table] + oc.col);
    out_names.push_back(oc.name);
  }
  if (!out_cols.empty()) {
    root = std::make_unique<ProjectOp>(std::move(root), out_cols, out_names);
    explain += StrFormat("Project (%zu cols)\n", out_cols.size());
  }

  // Anti-joins above the projection: evidence-satisfaction pruning
  // (probe columns are output columns). The packed-key batch variant
  // handles up to four distinct probe columns over a narrow build side
  // (one or two pack into a single uint64, three or four into a 128-bit
  // two-word key); a wider ref keeps the whole query on the Volcano
  // operators so both translations prune identically.
  for (const AntiJoinRef& aj : query.anti_joins) {
    if (aj.build == nullptr) {
      return Status::InvalidArgument("anti-join ref has no build relation");
    }
    if (!aj.build->narrow()) vec_ok = false;
    std::vector<int> distinct_probe;
    for (const AntiJoinTerm& term : aj.terms) {
      if (term.probe_col < 0) continue;
      bool seen = false;
      for (int p : distinct_probe) seen = seen || p == term.probe_col;
      if (!seen) distinct_probe.push_back(term.probe_col);
    }
    if (distinct_probe.size() > 4) vec_ok = false;
    explain += StrFormat("AntiJoin %s (build_rows=%zu)\n", aj.label.c_str(),
                         aj.build->num_rows());
    root = std::make_unique<AntiJoinOp>(std::move(root), aj);
  }
  if (options_.analyze) EnableAnalyze(root.get());

  // ---- Batch plan: same join order, same keys, same output order —
  // VecHashJoin/VecCrossJoin emit rows exactly as their Volcano
  // counterparts do, so the two plans are interchangeable bit for bit.
  VecOpPtr vec_root;
  if (vec_ok) {
    auto make_vec_scan = [&](int t) -> VecOpPtr {
      const TableRef& ref = query.tables[t];
      VecOpPtr op = std::make_unique<VecScanOp>(ref);
      if (!scan_preds[t].empty()) {
        op = std::make_unique<VecFilterOp>(std::move(op), scan_preds[t]);
      }
      return op;
    };
    VecOpPtr vroot = make_vec_scan(order[0]);
    for (size_t step = 1; step < order.size(); ++step) {
      VecOpPtr vright = make_vec_scan(order[step]);
      if (steps[step].keys.empty()) {
        vroot = std::make_unique<VecCrossJoinOp>(std::move(vroot),
                                                 std::move(vright));
      } else {
        vroot = std::make_unique<VecHashJoinOp>(
            std::move(vroot), std::move(vright), steps[step].keys);
      }
      if (!steps[step].cycles.empty()) {
        std::vector<VecPredicate> residuals;
        for (const auto& [a, b] : steps[step].cycles) {
          residuals.push_back(VecPredicate::EqCols(a, b));
        }
        vroot = std::make_unique<VecFilterOp>(std::move(vroot),
                                              std::move(residuals));
      }
    }
    if (!out_cols.empty()) {
      vroot = std::make_unique<VecProjectOp>(std::move(vroot), out_cols);
    }
    for (const AntiJoinRef& aj : query.anti_joins) {
      vroot = std::make_unique<VecAntiJoinOp>(std::move(vroot), aj);
    }
    vec_root = std::move(vroot);
    explain += StrFormat("Vectorized: batch plan (chunk=%u)\n", kVecChunkRows);
  }

  OptimizedPlan plan;
  plan.root = std::move(root);
  plan.vec_root = std::move(vec_root);
  plan.join_order = std::move(order);
  plan.explain = std::move(explain);
  return plan;
}

}  // namespace tuffy
