#ifndef TUFFY_GROUND_BOTTOM_UP_GROUNDER_H_
#define TUFFY_GROUND_BOTTOM_UP_GROUNDER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "ground/grounding.h"
#include "mln/model.h"
#include "ra/catalog.h"
#include "ra/optimizer.h"
#include "util/result.h"

namespace tuffy {

/// Tuffy's bottom-up grounding (Section 3.1 / Algorithm 2): each MLN
/// clause is compiled to a select-project-join query over the evidence
/// relations (EvidenceDb::rows) and the domain tables, and the relational
/// optimizer chooses join order and join algorithms. The query enumerates
/// candidate variable bindings; the shared GroundingContext then resolves
/// evidence truth per literal, expands existential quantifiers, and
/// applies the lazy-inference closure.
///
/// Binding relations per clause: each negative literal over a
/// closed-world predicate joins that predicate's true evidence rows,
/// scanned in place (a violable clause needs those atoms true); every
/// other universal variable ranges over its type's domain table.
/// Constants and repeated variables become pushed-down filters.
///
/// Execution is batch-at-a-time whenever the optimizer can emit a
/// vectorized plan (see OptimizerOptions::enable_vectorized). Grounding
/// runs on GroundingOptions::num_threads workers inside a rule as well
/// as across rules: a batch plan's hash-join and cross-join builds are
/// made once and shared read-only, and its driving scan is cut into
/// morsels, row ranges sized by the rows they feed (SplitDrivingScan),
/// never by the thread count. Each morsel runs the rest of the pipeline
/// and resolution into its own GroundingContext, and every context of a
/// Ground shares one CandidateAtomTable; the contexts merge in
/// (rule, morsel) order, and clause weights and the fixed cost derive
/// from grounding counts, so results are bit-identical across executors
/// and thread counts.
class BottomUpGrounder {
 public:
  BottomUpGrounder(const MlnProgram& program, const EvidenceDb& evidence,
                   GroundingOptions ground_options = {},
                   OptimizerOptions optimizer_options = {});

  /// Runs grounding end to end.
  Result<GroundingResult> Ground();

  /// EXPLAIN output of every per-clause query (populated by Ground).
  const std::string& explain() const { return explain_; }

 private:
  const MlnProgram& program_;
  const EvidenceDb& evidence_;
  GroundingOptions ground_options_;
  OptimizerOptions optimizer_options_;
  std::string explain_;
};

/// The compiled binding query of one first-order clause: the conjunctive
/// query whose output rows are candidate assignments of the clause's
/// universal variables (one output column per variable, ascending by
/// VarId). `trivial` marks fully-ground clauses — no universal variable,
/// a single empty-binding candidate, no query to run.
struct RuleBindingQuery {
  ConjunctiveQuery query;
  std::vector<VarId> out_vars;
  bool trivial = false;
  /// Bit k set = literal k joined the predicate's true evidence rows, so
  /// its atom is known true for every output binding and resolution can
  /// skip it (a negative literal over a true atom never satisfies nor
  /// opens the clause). kMaxClauseLiterals gives every literal a bit.
  /// Only set for plain (non-delta) compilations — delta substitutes may
  /// contain formerly-true rows.
  uint64_t binding_lit_mask = 0;
};

/// Columnar rows the binding-level delta path substitutes into a rule's
/// binding query: segments read in order as one relation, and their
/// ANALYZE statistics.
struct DeltaRelation {
  std::vector<const IdTable*> segments;
  TableStats stats;
};

/// Relation-substitution hooks for binding-level delta grounding (the
/// serving path). `delta_lit` designates one literal occurrence of the
/// clause as the *delta occurrence*: it always joins `delta` (the
/// changed atoms of its predicate), whether or not it would normally be
/// a binding literal, and its existentially-quantified argument
/// positions are left unconstrained. Every other binding literal over a
/// predicate present in `unions` reads that union (the delta's new-true
/// rows, then the pre-mutation true rows) instead of the true rows
/// alone, which makes the query enumerate a superset of the
/// bindings whose ground clause could have changed.
struct DeltaBindingSpec {
  int delta_lit = -1;
  const DeltaRelation* delta = nullptr;
  const std::unordered_map<PredicateId, DeltaRelation>* unions = nullptr;
};

/// Universal variables of clause `clause_idx` that no binding literal
/// binds, ascending: the variables its binding query scans a type's
/// domain table for (a delta plan may bind some of them through its
/// delta occurrence instead). A binding literal is negative, over a
/// closed-world predicate, with no existential argument. LoadMlnTables
/// loads the domains of exactly these variables' types.
std::vector<VarId> DomainScannedVars(const MlnProgram& program,
                                     int clause_idx);

/// ANALYZE statistics of a closed-world predicate's true evidence rows,
/// the relation its binding literals scan (AnalyzeColumns: a function
/// of the rows and their order alone).
TableStats AnalyzeTrueRows(const Predicate& pred, const EvidenceDb& evidence);

/// AnalyzeTrueRows of every closed-world predicate, indexed by predicate
/// id (default-constructed for open-world ones). The planner's
/// statistics: computed once on the thread that last mutated the
/// evidence, before any rule plans, and never lazily inside a scan,
/// because rules plan and run on pool workers in parallel.
std::vector<TableStats> AnalyzeClosedWorldEvidence(const MlnProgram& program,
                                                   const EvidenceDb& evidence);

/// Compiles the binding query of clause `clause_idx`: binding literals
/// scan `evidence`'s true rows (with `true_stats`, which must be current
/// for every closed-world predicate; see AnalyzeClosedWorldEvidence) and
/// free variables scan `catalog`'s domain tables (see LoadMlnTables).
/// `delta`, if non-null, applies the substitutions above.
///
/// `plan_antijoins` additionally plans **anti-joins** against the
/// evidence relations: for every resolvable literal (no existential
/// argument, not a binding literal), output bindings whose literal atom
/// the evidence makes true — positive literals against the predicate's
/// explicit-true rows, negative ones against its explicit-false rows —
/// are pruned inside the query, because such a clause is satisfied by
/// evidence and resolution would discard it anyway. Clauses with a
/// negative soft weight are exempt (their satisfied groundings
/// contribute fixed cost, which resolution must see), as are delta
/// compilations (the affected-binding superset must stay independent of
/// the satisfaction state). Pruning therefore never changes the ground
/// clause store — only how many rows reach resolution.
Result<RuleBindingQuery> BuildRuleBindingQuery(
    const MlnProgram& program, int clause_idx, const Catalog& catalog,
    const EvidenceDb& evidence, const std::vector<TableStats>& true_stats,
    bool plan_antijoins, const DeltaBindingSpec* delta = nullptr);

/// Runs an already-built binding query, appending every candidate
/// assignment to `out` (deduplicating against `seen` when non-null).
/// The workhorse of the delta path, which unions the affected bindings
/// of several delta occurrences of one rule.
Status CollectBindings(
    const MlnProgram& program, int clause_idx, RuleBindingQuery rule_query,
    const OptimizerOptions& optimizer_options,
    std::unordered_map<std::vector<ConstantId>, bool, GroundAtomHash_ArgsOnly>*
        seen,
    std::vector<Assignment>* out);

}  // namespace tuffy

#endif  // TUFFY_GROUND_BOTTOM_UP_GROUNDER_H_
