#include "ground/bottom_up_grounder.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "ground/atom_loader.h"
#include "ra/operators.h"
#include "ra/vec_ops.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace tuffy {

BottomUpGrounder::BottomUpGrounder(const MlnProgram& program,
                                   const EvidenceDb& evidence,
                                   GroundingOptions ground_options,
                                   OptimizerOptions optimizer_options)
    : program_(program),
      evidence_(evidence),
      ground_options_(ground_options),
      optimizer_options_(optimizer_options) {}

Result<RuleBindingQuery> BuildRuleBindingQuery(
    const MlnProgram& program, int clause_idx, const Catalog& catalog,
    const EvidenceSideTables& side_tables, bool plan_antijoins,
    const DeltaBindingSpec* delta) {
  const Clause& clause = program.clauses()[clause_idx];
  RuleBindingQuery out;
  std::vector<uint8_t> is_binding_ref(clause.literals.size(), 0);

  // Which variables are existential?
  std::vector<bool> existential(clause.num_vars, false);
  for (VarId v : clause.existential_vars) existential[v] = true;

  // Fully ground clause: a single candidate with no bindings.
  bool has_universal = false;
  for (VarId v = 0; v < clause.num_vars; ++v) {
    if (!existential[v]) has_universal = true;
  }
  if (!has_universal) {
    out.trivial = true;
    return out;
  }

  ConjunctiveQuery& query = out.query;
  // Site of each variable: (table ref index, column). -1 = unbound.
  struct Site {
    int ref = -1;
    int col = -1;
  };
  std::vector<Site> var_site(clause.num_vars);
  std::vector<JoinCondition>& joins = query.joins;

  /// Adds one literal as a binding relation over columnar rows of the
  /// predicate's arguments (arg0, ..., argK-1). Constants and repeated
  /// variables become pushed-down filters; shared variables become join
  /// conditions. When `skip_existential` is set (the delta occurrence of
  /// a rule), existential argument positions are left unconstrained.
  auto add_binding_ref = [&](const Literal& lit,
                             std::vector<const IdTable*> segments,
                             const TableStats* stats, std::string label,
                             bool skip_existential) -> Status {
    if (stats->columns.size() != lit.args.size()) {
      return Status::Internal(StrFormat(
          "binding relation %s is not analyzed", label.c_str()));
    }
    int ref_idx = static_cast<int>(query.tables.size());
    std::vector<ExprPtr> filters;
    double selectivity = 1.0;
    for (size_t i = 0; i < lit.args.size(); ++i) {
      const Term& t = lit.args[i];
      int col = static_cast<int>(i);
      if (!t.is_var) {
        filters.push_back(Eq(Col(col), Val(Datum(static_cast<int64_t>(t.id)))));
        selectivity *= 0.1;
        continue;
      }
      if (skip_existential && existential[t.id]) continue;
      if (var_site[t.id].ref < 0) {
        var_site[t.id] = Site{ref_idx, col};
      } else if (var_site[t.id].ref == ref_idx) {
        // Repeated variable within this literal: same-table filter.
        filters.push_back(Eq(Col(var_site[t.id].col), Col(col)));
        selectivity *= 0.1;
      } else {
        joins.push_back(JoinCondition{var_site[t.id].ref, var_site[t.id].col,
                                      ref_idx, col});
      }
    }
    TableRef ref;
    ref.segments = std::move(segments);
    ref.stats = stats;
    ref.label = std::move(label);
    if (!filters.empty()) ref.filter = And(std::move(filters));
    ref.selectivity = std::max(selectivity, 1e-9);
    query.tables.push_back(std::move(ref));
    return Status::OK();
  };

  // Delta occurrence first, so its (few) rows anchor the variable sites
  // and every other relation semi-joins against it.
  if (delta != nullptr && delta->delta_lit >= 0) {
    const Literal& lit = clause.literals[delta->delta_lit];
    TUFFY_RETURN_IF_ERROR(add_binding_ref(
        lit, delta->delta->segments, &delta->delta->stats,
        "delta_" + program.predicate(lit.pred).name,
        /*skip_existential=*/true));
  }

  // Binding literals: negative literals over closed-world predicates with
  // no existential variables. Their atoms must be true in a violable
  // ground clause, so we join the true evidence rows.
  for (size_t li = 0; li < clause.literals.size(); ++li) {
    if (delta != nullptr && static_cast<int>(li) == delta->delta_lit) continue;
    const Literal& lit = clause.literals[li];
    const Predicate& pred = program.predicate(lit.pred);
    if (lit.positive || !pred.closed_world) continue;
    bool has_exist = false;
    for (const Term& t : lit.args) {
      if (t.is_var && existential[t.id]) has_exist = true;
    }
    if (has_exist) continue;

    const DeltaRelation* u = nullptr;
    if (delta != nullptr && delta->unions != nullptr) {
      auto it = delta->unions->find(lit.pred);
      if (it != delta->unions->end()) u = &it->second;
    }
    if (u != nullptr) {
      TUFFY_RETURN_IF_ERROR(add_binding_ref(lit, u->segments, &u->stats,
                                            "union_" + pred.name,
                                            /*skip_existential=*/false));
    } else {
      TUFFY_RETURN_IF_ERROR(add_binding_ref(
          lit, {&side_tables.true_rows(pred.id)},
          &side_tables.true_stats(pred.id), "ev_true_" + pred.name,
          /*skip_existential=*/false));
    }
    is_binding_ref[li] = 1;
    if (delta == nullptr && li < 64) out.binding_lit_mask |= uint64_t{1} << li;
  }

  // Every unbound universal variable ranges over its type domain.
  for (VarId v = 0; v < clause.num_vars; ++v) {
    if (existential[v] || var_site[v].ref >= 0) continue;
    const std::string& type = clause.var_types[v];
    TUFFY_ASSIGN_OR_RETURN(Table * dom, catalog.GetTable(DomainTableName(type)));
    int ref_idx = static_cast<int>(query.tables.size());
    query.tables.push_back(RefTo(*dom));
    var_site[v] = Site{ref_idx, 0};
  }

  // Output one column per universal variable, ascending by VarId.
  for (VarId v = 0; v < clause.num_vars; ++v) {
    if (existential[v]) continue;
    query.outputs.push_back(OutputCol{
        var_site[v].ref, var_site[v].col,
        static_cast<size_t>(v) < clause.var_names.size() ? clause.var_names[v]
                                                         : ""});
    out.out_vars.push_back(v);
  }

  // Evidence-satisfaction anti-joins (see the header comment). Probe
  // columns index the query *output*: output column i binds
  // out.out_vars[i].
  if (plan_antijoins && delta == nullptr && !query.outputs.empty() &&
      (clause.hard || clause.weight >= 0.0)) {
    std::vector<int> var_out(clause.num_vars, -1);
    for (size_t i = 0; i < out.out_vars.size(); ++i) {
      var_out[out.out_vars[i]] = static_cast<int>(i);
    }
    for (size_t li = 0; li < clause.literals.size(); ++li) {
      if (is_binding_ref[li]) continue;  // atom joined true: never false
      const Literal& lit = clause.literals[li];
      bool resolvable = true;
      for (const Term& t : lit.args) {
        if (t.is_var && var_out[t.id] < 0) resolvable = false;  // existential
      }
      if (!resolvable) continue;
      const IdTable& build = lit.positive ? side_tables.true_rows(lit.pred)
                                          : side_tables.false_rows(lit.pred);
      if (build.num_rows() == 0) continue;
      AntiJoinRef ref;
      ref.build = &build;
      ref.label = (lit.positive ? "ev_true_" : "ev_false_") +
                  program.predicate(lit.pred).name;
      for (const Term& t : lit.args) {
        AntiJoinTerm term;
        if (t.is_var) {
          term.probe_col = var_out[t.id];
        } else {
          term.constant = static_cast<int64_t>(t.id);
        }
        ref.terms.push_back(term);
      }
      query.anti_joins.push_back(std::move(ref));
    }
  }
  return out;
}

Status GroundClauseCandidates(const MlnProgram& program, int clause_idx,
                              const Catalog& catalog,
                              const EvidenceSideTables& side_tables,
                              const OptimizerOptions& optimizer_options,
                              GroundingContext* ctx, std::string* explain) {
  const Clause& clause = program.clauses()[clause_idx];
  TUFFY_ASSIGN_OR_RETURN(
      RuleBindingQuery rq,
      BuildRuleBindingQuery(program, clause_idx, catalog, side_tables,
                            optimizer_options.enable_antijoin_pruning));
  if (rq.trivial) {
    ctx->AddCandidate(clause_idx, Assignment(clause.num_vars, -1));
    return Status::OK();
  }

  Optimizer optimizer(optimizer_options);
  TUFFY_ASSIGN_OR_RETURN(OptimizedPlan plan, optimizer.Plan(std::move(rq.query)));
  if (explain != nullptr) {
    *explain += StrFormat("-- rule %d --\n%s", clause.rule_id,
                          plan.explain.c_str());
  }

  // Rows dropped by the evidence anti-joins at the top of the plan:
  // (rows reaching the lowest anti-join) - (rows leaving the top one),
  // read off the operator counters after execution. These are
  // evidence-satisfied candidates resolution never saw.
  auto vec_pruned = [](const VecOp* op) {
    uint64_t out_rows = op->rows_produced();
    while (const auto* aj = dynamic_cast<const VecAntiJoinOp*>(op)) {
      const VecOp* child = nullptr;
      aj->ForEachChild([&](const VecOp* c) { child = c; });
      op = child;
    }
    return op->rows_produced() - out_rows;
  };
  auto volcano_pruned = [](PhysicalOp* op) {
    uint64_t out_rows = op->rows_produced();
    while (auto* aj = dynamic_cast<AntiJoinOp*>(op)) {
      PhysicalOp* child = nullptr;
      aj->ForEachChild([&](PhysicalOp* c) { child = c; });
      op = child;
    }
    return op->rows_produced() - out_rows;
  };

  if (plan.vec_root != nullptr) {
    // Batch path: whole chunks flow from the executor into the resolver.
    TUFFY_RETURN_IF_ERROR(
        ForEachChunk(plan.vec_root.get(), [&](const ColumnChunk& chunk) {
          ctx->AddCandidateChunk(clause_idx, chunk, rq.out_vars,
                                 rq.binding_lit_mask);
          return Status::OK();
        }));
    ctx->RecordAntiJoinPruned(vec_pruned(plan.vec_root.get()));
    if (explain != nullptr && optimizer_options.analyze) {
      *explain += StrFormat("-- analyze rule %d --\n", clause.rule_id);
      AppendVecAnalyze(plan.vec_root.get(), 0, explain);
    }
    return Status::OK();
  }

  TUFFY_RETURN_IF_ERROR(plan.root->Open());
  Row row;
  Assignment assignment(clause.num_vars, -1);
  while (true) {
    auto has = plan.root->Next(&row);
    if (!has.ok()) return has.status();
    if (!has.value()) break;
    for (size_t i = 0; i < rq.out_vars.size(); ++i) {
      assignment[rq.out_vars[i]] = static_cast<ConstantId>(row[i].int64());
    }
    ctx->AddCandidate(clause_idx, assignment, rq.binding_lit_mask);
  }
  ctx->RecordAntiJoinPruned(volcano_pruned(plan.root.get()));
  plan.root->Close();
  if (explain != nullptr && optimizer_options.analyze) {
    *explain += StrFormat("-- analyze rule %d --\n", clause.rule_id);
    AppendAnalyze(plan.root.get(), 0, explain);
  }
  return Status::OK();
}

Status CollectBindings(
    const MlnProgram& program, int clause_idx, RuleBindingQuery rule_query,
    const OptimizerOptions& optimizer_options,
    std::unordered_map<std::vector<ConstantId>, bool, GroundAtomHash_ArgsOnly>*
        seen,
    std::vector<Assignment>* out) {
  const Clause& clause = program.clauses()[clause_idx];
  Optimizer optimizer(optimizer_options);
  TUFFY_ASSIGN_OR_RETURN(OptimizedPlan plan,
                         optimizer.Plan(std::move(rule_query.query)));
  const std::vector<VarId>& out_vars = rule_query.out_vars;
  Assignment assignment(clause.num_vars, -1);
  auto emit = [&]() {
    if (seen != nullptr) {
      auto [it, inserted] = seen->emplace(assignment, true);
      if (!inserted) return;
    }
    out->push_back(assignment);
  };
  if (plan.vec_root != nullptr) {
    return ForEachChunk(plan.vec_root.get(), [&](const ColumnChunk& chunk) {
      for (uint32_t r = 0; r < chunk.num_rows; ++r) {
        for (size_t c = 0; c < out_vars.size(); ++c) {
          assignment[out_vars[c]] = static_cast<ConstantId>(chunk.col(c)[r]);
        }
        emit();
      }
      return Status::OK();
    });
  }
  TUFFY_RETURN_IF_ERROR(plan.root->Open());
  Row row;
  while (true) {
    auto has = plan.root->Next(&row);
    if (!has.ok()) return has.status();
    if (!has.value()) break;
    for (size_t i = 0; i < out_vars.size(); ++i) {
      assignment[out_vars[i]] = static_cast<ConstantId>(row[i].int64());
    }
    emit();
  }
  plan.root->Close();
  return Status::OK();
}

Result<GroundingResult> BottomUpGrounder::Ground() {
  Timer timer;
  Catalog catalog;
  explain_.clear();
  TUFFY_RETURN_IF_ERROR(LoadMlnTables(program_, evidence_, &catalog));

  // Evidence side tables for this run: binding literals scan their true
  // rows in place (in evidence-map order, which Rebuild preserves), and
  // the anti-join build relations and the pattern-count index read
  // per-predicate rows from here instead of scanning the evidence map.
  // The stats are computed here, before any rule plans. Read-only while
  // rules ground, so sharing across worker threads is safe.
  EvidenceSideTables side_tables(program_.num_predicates());
  side_tables.Rebuild(evidence_);
  for (const Predicate& pred : program_.predicates()) {
    if (pred.closed_world) side_tables.AnalyzeTrueRows(pred);
  }
  GroundingOptions opts = ground_options_;
  opts.side_tables = &side_tables;

  GroundingContext ctx(program_, evidence_, opts);
  const int num_rules = static_cast<int>(program_.clauses().size());
  const int threads = std::max(1, std::min(opts.num_threads, num_rules));

  // Every rule resolves into its own context — concurrently when a pool
  // is available — and the contexts merge in rule-index order, so the
  // grounding result is bit-identical for every thread count. The serial
  // path absorbs (and frees) each context as soon as its rule finishes;
  // the parallel path absorbs the completed prefix as it forms (the
  // merge thread sleeps on the next rule in order), so a local context
  // lives only until every earlier rule has finished, not until the
  // whole batch has.
  std::vector<std::unique_ptr<GroundingContext>> locals(num_rules);
  std::vector<std::string> explains(num_rules);
  std::vector<Status> statuses(num_rules, Status::OK());
  auto ground_rule = [&](int r) {
    locals[r] = std::make_unique<GroundingContext>(program_, evidence_, opts);
    statuses[r] = GroundClauseCandidates(program_, r, catalog, side_tables,
                                         optimizer_options_, locals[r].get(),
                                         &explains[r]);
  };
  auto absorb_rule = [&](int r) -> Status {
    TUFFY_RETURN_IF_ERROR(statuses[r]);
    explain_ += explains[r];
    ctx.AbsorbPending(locals[r].get());
    locals[r].reset();
    return Status::OK();
  };
  if (threads > 1) {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<uint8_t> done(num_rules, 0);
    Status merge_status = Status::OK();
    {
      ThreadPool pool(threads);
      for (int r = 0; r < num_rules; ++r) {
        pool.Submit([&, r] {
          ground_rule(r);
          {
            std::lock_guard<std::mutex> lock(mu);
            done[r] = 1;
          }
          cv.notify_one();
        });
      }
      for (int r = 0; r < num_rules; ++r) {
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return done[r] != 0; });
        }
        if (merge_status.ok()) {
          merge_status = absorb_rule(r);
        } else {
          locals[r].reset();  // keep draining; free the orphaned context
        }
      }
      // Pool destructor joins the (now idle) workers before `done`,
      // `locals`, and friends leave scope.
    }
    TUFFY_RETURN_IF_ERROR(merge_status);
  } else {
    for (int r = 0; r < num_rules; ++r) {
      ground_rule(r);
      TUFFY_RETURN_IF_ERROR(absorb_rule(r));
    }
  }

  TUFFY_ASSIGN_OR_RETURN(GroundingResult result, ctx.Finalize());
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace tuffy
