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

namespace tuffy {

BottomUpGrounder::BottomUpGrounder(const MlnProgram& program,
                                   const EvidenceDb& evidence,
                                   GroundingOptions ground_options,
                                   OptimizerOptions optimizer_options)
    : program_(program),
      evidence_(evidence),
      ground_options_(ground_options),
      optimizer_options_(optimizer_options) {}

TableStats AnalyzeTrueRows(const Predicate& pred, const EvidenceDb& evidence) {
  return AnalyzeColumns({&evidence.rows(pred.id, true)}, pred.arity());
}

std::vector<TableStats> AnalyzeClosedWorldEvidence(const MlnProgram& program,
                                                   const EvidenceDb& evidence) {
  std::vector<TableStats> stats(program.num_predicates());
  for (const Predicate& pred : program.predicates()) {
    if (pred.closed_world) stats[pred.id] = AnalyzeTrueRows(pred, evidence);
  }
  return stats;
}

namespace {

std::vector<bool> ExistentialVars(const Clause& clause) {
  std::vector<bool> existential(clause.num_vars, false);
  for (VarId v : clause.existential_vars) existential[v] = true;
  return existential;
}

/// A binding literal: negative, over a closed-world predicate, with no
/// existential argument. Its atom must be true in a violable ground
/// clause, so the binding query joins the predicate's true rows.
bool IsBindingLiteral(const MlnProgram& program, const Literal& lit,
                      const std::vector<bool>& existential) {
  if (lit.positive || !program.predicate(lit.pred).closed_world) return false;
  for (const Term& t : lit.args) {
    if (t.is_var && existential[t.id]) return false;
  }
  return true;
}

}  // namespace

std::vector<VarId> DomainScannedVars(const MlnProgram& program,
                                     int clause_idx) {
  const Clause& clause = program.clauses()[clause_idx];
  const std::vector<bool> existential = ExistentialVars(clause);
  std::vector<bool> bound = existential;
  for (const Literal& lit : clause.literals) {
    if (!IsBindingLiteral(program, lit, existential)) continue;
    for (const Term& t : lit.args) {
      if (t.is_var) bound[t.id] = true;
    }
  }
  std::vector<VarId> vars;
  for (VarId v = 0; v < clause.num_vars; ++v) {
    if (!bound[v]) vars.push_back(v);
  }
  return vars;
}

Result<RuleBindingQuery> BuildRuleBindingQuery(
    const MlnProgram& program, int clause_idx, const Catalog& catalog,
    const EvidenceDb& evidence, const std::vector<TableStats>& true_stats,
    bool plan_antijoins, const DeltaBindingSpec* delta) {
  const Clause& clause = program.clauses()[clause_idx];
  RuleBindingQuery out;
  std::vector<uint8_t> is_binding_ref(clause.literals.size(), 0);
  const std::vector<bool> existential = ExistentialVars(clause);

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

  // Binding literals join the true evidence rows.
  for (size_t li = 0; li < clause.literals.size(); ++li) {
    if (delta != nullptr && static_cast<int>(li) == delta->delta_lit) continue;
    const Literal& lit = clause.literals[li];
    if (!IsBindingLiteral(program, lit, existential)) continue;
    const Predicate& pred = program.predicate(lit.pred);

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
          lit, {&evidence.rows(pred.id, true)}, &true_stats[pred.id],
          "ev_true_" + pred.name, /*skip_existential=*/false));
    }
    is_binding_ref[li] = 1;
    if (delta == nullptr) out.binding_lit_mask |= uint64_t{1} << li;
  }

  // Every other universal variable ranges over its type domain (unless
  // the delta occurrence bound it).
  for (VarId v : DomainScannedVars(program, clause_idx)) {
    if (var_site[v].ref >= 0) continue;
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
      const IdTable& build = evidence.rows(lit.pred, lit.positive);
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

namespace {

/// Rows a morsel feeds its plan's output, about (SplitDrivingScan). Large
/// enough that a morsel's own costs (a GroundingContext, a copy of the
/// probe pipeline, an absorb that appends its pending clauses) stay small
/// beside its resolution work; a rule feeding fewer rows stays whole.
constexpr double kMorselRows = 65536;

/// Rows dropped by the evidence anti-joins at the top of a plan:
/// (rows reaching the lowest anti-join) - (rows leaving the top one),
/// read off the operator counters after execution. These are
/// evidence-satisfied candidates resolution never saw.
uint64_t VecPruned(const VecOp* op) {
  const uint64_t out_rows = op->rows_produced();
  while (dynamic_cast<const VecAntiJoinOp*>(op) != nullptr) {
    op = op->probe_child();
  }
  return op->rows_produced() - out_rows;
}

uint64_t VolcanoPruned(PhysicalOp* op) {
  const uint64_t out_rows = op->rows_produced();
  while (auto* aj = dynamic_cast<AntiJoinOp*>(op)) {
    PhysicalOp* child = nullptr;
    aj->ForEachChild([&](PhysicalOp* c) { child = c; });
    op = child;
  }
  return op->rows_produced() - out_rows;
}

/// One rule's binding query, planned and opened (its builds made), with
/// its driving scan cut into morsels, each a CloneProbe copy of the
/// plan's probe pipeline. A Volcano plan or a fully ground rule is one
/// morsel. Distinct morsels may Run concurrently, each into its own
/// context; fed in morsel order into one context, they give exactly the
/// candidates of the unsplit plan in the same order.
class RuleMorsels {
 public:
  RuleMorsels(const MlnProgram& program, int clause_idx)
      : program_(program), clause_idx_(clause_idx) {}

  /// Plans and opens rule `clause_idx`: its binding query
  /// (BuildRuleBindingQuery, with anti-joins when
  /// optimizer_options.enable_antijoin_pruning is set) over `catalog`'s
  /// domain tables and `evidence`'s relations. `explain`, if non-null,
  /// receives the plan.
  static Result<std::unique_ptr<RuleMorsels>> Open(
      const MlnProgram& program, int clause_idx, const Catalog& catalog,
      const EvidenceDb& evidence, const std::vector<TableStats>& true_stats,
      const OptimizerOptions& optimizer_options, std::string* explain);

  size_t num_morsels() const {
    return pipelines_.empty() ? 1 : pipelines_.size();
  }

  /// Feeds every candidate of morsel `m` into `ctx`.
  Status Run(size_t m, GroundingContext* ctx);

  /// Once every morsel has run: sums the morsels' operator counters into
  /// the plan, appends its ANALYZE block to `analyze` when non-null,
  /// closes the plan (its builds go), and returns the rows the evidence
  /// anti-joins pruned.
  uint64_t Finish(std::string* analyze);

 private:
  const MlnProgram& program_;
  int clause_idx_;
  RuleBindingQuery rq_;
  OptimizedPlan plan_;
  std::vector<VecOpPtr> pipelines_;  // batch plans: one per morsel
};

Result<std::unique_ptr<RuleMorsels>> RuleMorsels::Open(
    const MlnProgram& program, int clause_idx, const Catalog& catalog,
    const EvidenceDb& evidence, const std::vector<TableStats>& true_stats,
    const OptimizerOptions& optimizer_options, std::string* explain) {
  auto rule = std::make_unique<RuleMorsels>(program, clause_idx);
  TUFFY_ASSIGN_OR_RETURN(
      rule->rq_,
      BuildRuleBindingQuery(program, clause_idx, catalog, evidence, true_stats,
                            optimizer_options.enable_antijoin_pruning));
  if (rule->rq_.trivial) return rule;

  Optimizer optimizer(optimizer_options);
  TUFFY_ASSIGN_OR_RETURN(rule->plan_,
                         optimizer.Plan(std::move(rule->rq_.query)));
  if (explain != nullptr) {
    *explain += StrFormat("-- rule %d --\n%s",
                          program.clauses()[clause_idx].rule_id,
                          rule->plan_.explain.c_str());
  }
  if (VecOp* root = rule->plan_.vec_root.get()) {
    TUFFY_RETURN_IF_ERROR(root->Open());
    for (RowRange rows : SplitDrivingScan(*root, kMorselRows)) {
      rule->pipelines_.push_back(root->CloneProbe(rows));
    }
  }
  return rule;
}

Status RuleMorsels::Run(size_t m, GroundingContext* ctx) {
  const Clause& clause = program_.clauses()[clause_idx_];
  if (rq_.trivial) {
    ctx->AddCandidate(clause_idx_, Assignment(clause.num_vars, -1));
    return Status::OK();
  }
  if (!pipelines_.empty()) {
    // Batch path: whole chunks flow from the executor into the resolver.
    return ForEachChunk(pipelines_[m].get(), [&](const ColumnChunk& chunk) {
      ctx->AddCandidateChunk(clause_idx_, chunk, rq_.out_vars,
                             rq_.binding_lit_mask);
      return Status::OK();
    });
  }
  PhysicalOp* root = plan_.root.get();
  TUFFY_RETURN_IF_ERROR(root->Open());
  Row row;
  Assignment assignment(clause.num_vars, -1);
  while (true) {
    auto has = root->Next(&row);
    if (!has.ok()) return has.status();
    if (!has.value()) break;
    for (size_t i = 0; i < rq_.out_vars.size(); ++i) {
      assignment[rq_.out_vars[i]] = static_cast<ConstantId>(row[i].int64());
    }
    ctx->AddCandidate(clause_idx_, assignment, rq_.binding_lit_mask);
  }
  root->Close();
  return Status::OK();
}

uint64_t RuleMorsels::Finish(std::string* analyze) {
  if (rq_.trivial) return 0;
  const int rule_id = program_.clauses()[clause_idx_].rule_id;
  if (analyze != nullptr) {
    *analyze += StrFormat("-- analyze rule %d --\n", rule_id);
  }
  if (VecOp* root = plan_.vec_root.get()) {
    for (VecOpPtr& pipeline : pipelines_) {
      root->AddProbeCounters(*pipeline);
      pipeline.reset();
    }
    const uint64_t pruned = VecPruned(root);
    if (analyze != nullptr) AppendVecAnalyze(root, 0, analyze);
    root->Close();
    return pruned;
  }
  const uint64_t pruned = VolcanoPruned(plan_.root.get());
  if (analyze != nullptr) AppendAnalyze(plan_.root.get(), 0, analyze);
  return pruned;
}

}  // namespace

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
  Catalog catalog;
  explain_.clear();
  TUFFY_RETURN_IF_ERROR(LoadMlnTables(program_, evidence_, &catalog));

  // Binding literals, anti-joins and the pattern-count index read the
  // evidence relations in place. Their stats are computed here, before
  // any rule plans; workers share both read-only. Every context of the
  // Ground resolves into one candidate-atom table.
  const std::vector<TableStats> true_stats =
      AnalyzeClosedWorldEvidence(program_, evidence_);
  CandidateAtomTable table(program_);
  GroundingContext ctx(program_, evidence_, ground_options_, &table);
  const int num_rules = static_cast<int>(program_.clauses().size());
  const bool want_analyze = optimizer_options_.analyze;

  // A rule task plans the rule, makes its builds and cuts its driving
  // scan into morsels (RuleMorsels); each morsel resolves into its own
  // context on a pool worker, and the last one to finish closes the
  // plan, so a rule's builds live only while its morsels run. The
  // calling thread absorbs the contexts in (rule, morsel) order as the
  // completed prefix forms, so the result is bit-identical for every
  // thread count. At one thread the pool is absent and every task runs
  // inline as it is submitted: the same morsels in the same order.
  struct Morsel {
    std::unique_ptr<GroundingContext> ctx;
    Status status = Status::OK();
    bool done = false;
  };
  struct Rule {
    Status status = Status::OK();
    std::unique_ptr<RuleMorsels> plan;
    std::string explain;  // plan text, then the ANALYZE block
    uint64_t pruned = 0;
    std::vector<Morsel> morsels;
    size_t running = 0;  // morsels not yet finished
    bool planned = false;
    bool finished = false;  // every morsel ran and the plan closed
  };
  std::vector<Rule> rules(num_rules);
  std::mutex mu;
  std::condition_variable cv;

  auto run_morsel = [&](int r, size_t m) {
    Rule& rule = rules[r];
    Morsel& morsel = rule.morsels[m];
    morsel.ctx = std::make_unique<GroundingContext>(
        program_, evidence_, ground_options_, &table);
    morsel.status = rule.plan->Run(m, morsel.ctx.get());
    bool last;
    {
      std::lock_guard<std::mutex> lock(mu);
      morsel.done = true;
      last = --rule.running == 0;
    }
    if (last) {
      // Every morsel of the rule has run: no one else touches the plan.
      std::string analyze;
      rule.pruned = rule.plan->Finish(want_analyze ? &analyze : nullptr);
      rule.plan.reset();
      std::lock_guard<std::mutex> lock(mu);
      rule.explain += analyze;
      rule.finished = true;
    }
    cv.notify_one();
  };

  // Absorbs the ready prefix of (rule, morsel) items; with `block`, waits
  // for and absorbs every one.
  int next_rule = 0;
  size_t next_morsel = 0;
  auto absorb = [&](bool block) -> Status {
    while (next_rule < num_rules) {
      Rule& rule = rules[next_rule];
      {
        std::unique_lock<std::mutex> lock(mu);
        auto ready = [&] {
          if (!rule.planned) return false;
          if (next_morsel < rule.morsels.size()) {
            return rule.morsels[next_morsel].done;
          }
          return rule.finished || !rule.status.ok();
        };
        if (!ready()) {
          if (!block) return Status::OK();
          cv.wait(lock, ready);
        }
      }
      TUFFY_RETURN_IF_ERROR(rule.status);
      if (next_morsel < rule.morsels.size()) {
        Morsel& morsel = rule.morsels[next_morsel++];
        TUFFY_RETURN_IF_ERROR(morsel.status);
        ctx.AbsorbPending(morsel.ctx.get());
        ctx.RecordMorsel();
        morsel.ctx.reset();
        continue;
      }
      explain_ += rule.explain;
      ctx.RecordAntiJoinPruned(rule.pruned);
      next_morsel = 0;
      ++next_rule;
    }
    return Status::OK();
  };

  Status status = Status::OK();
  {
    std::unique_ptr<ThreadPool> pool =
        MakeWorkerPool(ground_options_.num_threads);
    TaskGroup group(pool.get());
    auto plan_rule = [&](int r) {
      Rule& rule = rules[r];
      auto opened = RuleMorsels::Open(program_, r, catalog, evidence_,
                                      true_stats, optimizer_options_,
                                      &rule.explain);
      size_t n = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (opened.ok()) {
          rule.plan = opened.TakeValue();
          n = rule.plan->num_morsels();
          rule.morsels.resize(n);
          rule.running = n;
        } else {
          rule.status = opened.status();
        }
        rule.planned = true;
      }
      cv.notify_one();
      // Morsels 0..n-2 go to the pool ahead of the queued rule tasks:
      // until they are absorbed, no later rule's context can be, so
      // running later rules first would only pile those contexts up.
      // The rule task runs the last morsel itself, so a rule of one
      // morsel is one task, start to finish.
      std::vector<std::function<void()>> morsels;
      for (size_t m = 0; m + 1 < n; ++m) {
        morsels.push_back([&, r, m] { run_morsel(r, m); });
      }
      if (!morsels.empty()) group.SubmitFirst(std::move(morsels));
      if (n > 0) run_morsel(r, n - 1);
    };
    for (int r = 0; r < num_rules && status.ok(); ++r) {
      group.Submit([&, r] { plan_rule(r); });
      status = absorb(/*block=*/false);
    }
    if (status.ok()) status = absorb(/*block=*/true);
    // On error the group's destructor still waits for every task before
    // `rules` and the pool go.
  }
  TUFFY_RETURN_IF_ERROR(status);
  return ctx.Finalize();
}

}  // namespace tuffy
