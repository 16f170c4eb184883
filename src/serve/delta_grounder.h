#ifndef TUFFY_SERVE_DELTA_GROUNDER_H_
#define TUFFY_SERVE_DELTA_GROUNDER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "durability/serialize.h"
#include "ground/ground_clause.h"
#include "ground/grounding.h"
#include "mln/model.h"
#include "ra/catalog.h"
#include "ra/optimizer.h"
#include "util/result.h"

namespace tuffy {

/// One batch of evidence changes applied to a serving session.
/// Assertions overwrite any existing entry for the atom; retractions
/// remove the explicit entry, reverting the atom to unknown (or to the
/// closed-world default false). A delta is a *set*, not a sequence: an
/// atom both asserted and retracted in the same batch nets to the
/// assertion, and among duplicate assertions the later one wins.
struct EvidenceDelta {
  std::vector<std::pair<GroundAtom, bool>> assertions;
  std::vector<GroundAtom> retractions;

  bool empty() const { return assertions.empty() && retractions.empty(); }

  void Assert(GroundAtom atom, bool truth) {
    assertions.emplace_back(std::move(atom), truth);
  }
  void Retract(GroundAtom atom) { retractions.push_back(std::move(atom)); }
};

/// The one byte layout of an EvidenceDelta, shared by WAL delta records
/// and the wire's ApplyDelta body: a u32 assertion count, each assertion
/// an atom then a u8 truth (0 or 1); a u32 retraction count, each
/// retraction an atom. Vector order is kept, because the net-op fold
/// iterates a hash map built by inserting in that order and WAL replay
/// must walk the same insertion sequence.
void EncodeEvidenceDelta(const EvidenceDelta& delta, BinaryWriter* out);

/// Reads one EncodeEvidenceDelta layout into `delta`, replacing its
/// contents. Returns false, with the reader failed, on a short read or a
/// truth byte other than 0 or 1, so every accepted body re-encodes to
/// the same bytes. No count sizes an allocation before its bytes are
/// known to be there. Trailing bytes are the caller's to refuse.
bool DecodeEvidenceDelta(BinaryReader* in, EvidenceDelta* delta);

/// The atom layout inside EncodeEvidenceDelta, also used by wire
/// replies: i32 predicate, u16 argument count, one i32 per argument.
void EncodeGroundAtom(const GroundAtom& atom, BinaryWriter* out);

/// Reads one EncodeGroundAtom layout; false (reader failed) when the
/// bytes run out, checked before the argument count sizes anything.
bool DecodeGroundAtom(BinaryReader* in, GroundAtom* atom);

/// Outcome of one DeltaGrounder::ApplyDelta call: what changed in the
/// ground clause set, and which session atoms the edits touched (the seed
/// set of the dirty-component computation).
struct GroundEdits {
  /// True when the delta was a semantic no-op (every assertion matched
  /// the existing evidence, every retraction named an absent atom): the
  /// clause set, evidence, and caches were not touched at all.
  bool no_op = false;
  size_t rules_reground = 0;
  /// Candidate bindings re-resolved (old and new evidence sides
  /// combined). A delta's grounding work scales with this, not with the
  /// touched relations' sizes.
  size_t bindings_resolved = 0;
  size_t clauses_added = 0;
  size_t clauses_removed = 0;
  size_t clauses_reweighted = 0;
  /// Rows materialized for table maintenance this delta: the delta
  /// relations (the changed atoms) and the new-true segments of the
  /// union relations. The evidence relations themselves are updated in
  /// place by EvidenceDb::Add/Remove and scanned in place, so this
  /// scales with the delta — never with the touched relations or
  /// |evidence| (tests/antijoin_test.cc pins both down).
  size_t maintenance_rows = 0;
  /// Deduplicated session atom ids appearing in any edited clause.
  std::vector<AtomId> dirty_atoms;
  double ground_seconds = 0.0;
};

/// Incremental grounding for long-lived inference sessions. Initialize
/// grounds the whole program once with the batch grounder Run uses: an
/// exhaustive BottomUpGrounder::Ground at ground_options.num_threads
/// threads. Then the grounder serves evidence deltas by re-grounding only
/// the first-order rules whose literals mention a predicate the delta
/// touched. Every grounding is an old and a new contribution part — per
/// literal set and rule, how many groundings of the rule produce it
/// before and after (Initialize's old part is empty) — and one edit pass
/// applies all parts' differences to the resident clause store in sorted
/// literal order: it appends, re-weights and swap-removes clauses in
/// place.
///
/// Touched rules re-ground at *binding granularity*: instead of
/// re-running a rule's whole binding query, the changed atoms of each
/// touched predicate are joined (per literal occurrence) against the
/// rest of the rule body — with the other touched binding relations
/// widened to old-or-new true rows — which enumerates a superset of the
/// bindings whose ground clause could have changed (a rule with no
/// universal variable has one binding, the empty one). Each affected
/// binding is resolved under the old evidence (the old part) and the new
/// (the new part), so the re-ground cost scales with the delta size
/// rather than the touched relations' sizes. Only Initialize grounds a
/// rule in full. A touched clause's weight and hard flag, and every
/// rule's fixed cost, derive from grounding counts the way batch
/// grounding derives them (RuleWeights), never accumulated, so they
/// match a fresh Initialize of the same evidence bit for bit.
///
/// Resident state: a copy of the evidence, whose relations are
/// maintained in place per changed atom, their ANALYZE statistics
/// (re-computed per touched closed-world predicate), an RA catalog of
/// domain tables, a grow-only session AtomStore, and one
/// GroundClauseStore: each clause's literal set once, behind the store's
/// duplicate index, with its derived weight, hard flag and per-rule
/// grounding counts — the same provenance batch grounding keeps, so a
/// clause merged from several rules loses or gains one rule's
/// groundings without re-deriving the others'.
///
/// Sessions ground *exhaustively* (the lazy-inference closure is forced
/// off): the closure is a whole-program fixpoint, so one rule's clauses
/// could not be re-derived in isolation under it. This makes a session's
/// clause set — and hence its MAP cost and marginals — match a
/// from-scratch grounding of the accumulated evidence with
/// `lazy_closure = false` after any sequence of deltas.
class DeltaGrounder {
 public:
  DeltaGrounder(const MlnProgram& program, GroundingOptions ground_options,
                OptimizerOptions optimizer_options);

  DeltaGrounder(const DeltaGrounder&) = delete;
  DeltaGrounder& operator=(const DeltaGrounder&) = delete;

  /// Copies `initial_evidence`, builds the domain tables and stats, and
  /// grounds the program against it in one exhaustive batch Ground. Call
  /// exactly once, before any ApplyDelta.
  Status Initialize(const EvidenceDb& initial_evidence);

  /// Applies one evidence delta: updates the resident evidence copy (and
  /// with it its relations), re-grounds the affected rules, and edits
  /// the clause store in place. A delta naming an unknown predicate, the
  /// wrong arity, or a constant outside its argument type's domain is
  /// refused with InvalidArgument before anything changes. Failure
  /// semantics are fail-stop: an error after the evidence mutation began
  /// leaves the resident state inconsistent, so the grounder poisons
  /// itself and every later call fails rather than silently serving a
  /// half-applied state.
  Result<GroundEdits> ApplyDelta(const EvidenceDelta& delta);

  /// The session's ground atom universe. Grow-only: an atom that loses
  /// all its clauses stays registered (as a clause-less singleton) so
  /// truth/marginal vectors never shrink or renumber.
  const AtomStore& atoms() const { return atoms_; }

  /// The resident ground clauses with their per-rule grounding counts.
  /// Clause order is not stable across deltas (removal is
  /// swap-with-last); literal order within a clause is sorted.
  const GroundClauseStore& store() const { return store_; }
  const std::vector<GroundClause>& clauses() const {
    return store_.clauses();
  }

  /// Cost contributed by clauses fully determined by the evidence: the
  /// rules' fixed-cost grounding counts through RuleWeights::FixedCost,
  /// the derivation GroundingResult::fixed_cost takes too.
  double fixed_cost() const;

  /// True if any rule currently has a hard clause violated by evidence
  /// alone.
  bool hard_contradiction() const;

  /// The accumulated evidence the current clause set reflects.
  const EvidenceDb& evidence() const { return evidence_; }

  /// Rough resident footprint: clause store, atom store, evidence (index
  /// and relations), and domain tables.
  size_t EstimateBytes() const;

  /// Serializes the full resident state into `out`: evidence relations,
  /// atom store, clause list, and each rule's grounding counts (rebuilt
  /// from the store's provenance, in sorted literal order). Everything a
  /// snapshot needs to reconstruct a grounder whose later deltas evolve
  /// bit-identically to the never-saved original.
  void SaveState(BinaryWriter* out) const;

  /// Counterpart of SaveState: restores a grounder constructed with the
  /// same program and options, *instead of* Initialize. The evidence is
  /// re-added row by row in the stored order, so its relations equal the
  /// saved ones row for row; derived structures (catalog, stats, binding
  /// metadata) are rebuilt. Corruption on any layout or invariant
  /// violation, including an atom stored twice (in one relation or in
  /// both polarities), a stored constant outside the symbol table, and a
  /// contradiction count that is negative or belongs to a soft rule. No
  /// stored count sizes an allocation before the bytes it promises are
  /// known to be there.
  Status LoadState(BinaryReader* in);

 private:
  /// `count` groundings of rule `rule` (negative: retracted) on the
  /// clause whose sorted session literal set is `lits`: one line of a
  /// re-ground's old or new contribution part.
  struct CountEdit {
    std::vector<Lit> lits;
    int32_t rule = -1;
    int64_t count = 0;
  };

  /// Builds everything derivable from program + evidence: the
  /// predicate->rules fan-out, the domain-table catalog, the closed-world
  /// true rows' stats (a pure function of the rows and their order, so
  /// the same whether the grounder was initialized fresh or restored
  /// from a snapshot), and the per-rule binding-query metadata. Shared
  /// by Initialize and LoadState.
  Status BuildDerivedState();

  /// Resolves the affected bindings of one rule that its query would
  /// enumerate under the *current* resident evidence, counting them in
  /// `edits->bindings_resolved`. Called once before the evidence
  /// mutation (the old part) and once after (the new part).
  Result<GroundingResult> ResolveEnumerated(
      int rule_idx, const std::vector<Assignment>& affected,
      GroundEdits* edits);

  /// Appends a grounding result to `edits`: one edit per (clause,
  /// contributing rule) of its store, `sign` x that rule's count, on the
  /// clause's literal set remapped into session atom ids.
  void AppendPart(const GroundingResult& part, int sign,
                  std::vector<CountEdit>* edits);

  /// True when every plain binding literal of the rule holds (atom true)
  /// under the current resident evidence for `binding` — i.e. the full
  /// rule query would enumerate this binding right now.
  bool BindingEnumerated(int rule_idx, const Assignment& binding) const;

  /// The one edit pass: applies the summed count changes to the store in
  /// sorted literal order, re-deriving each touched clause's weight and
  /// hard flag (GroundClauseStore::DeriveWeight), and records edit
  /// counts and dirty atoms.
  void ApplyEdits(std::vector<CountEdit> edits, GroundEdits* out);

  const MlnProgram& program_;
  GroundingOptions ground_options_;
  OptimizerOptions optimizer_options_;
  /// What clause weights and the fixed cost derive from.
  RuleWeights rules_;

  /// The resident evidence. Its relations are what binding literals scan
  /// (alone or as the old-true segment of a union) and what the
  /// pattern-count index reads; deltas update them in place, so the
  /// serving path never rescans the evidence.
  EvidenceDb evidence_;
  /// ANALYZE statistics of each closed-world predicate's true rows
  /// (AnalyzeClosedWorldEvidence), re-computed for the touched ones on
  /// the mutating thread after every delta. Delta plans read these and
  /// the catalog; Initialize's batch Ground builds its own.
  std::vector<TableStats> true_stats_;
  /// Domain tables only (LoadMlnTables).
  Catalog catalog_;
  /// Predicate -> rules with a literal over it (delta fan-out).
  std::vector<std::vector<int>> rules_of_predicate_;

  AtomStore atoms_;
  GroundClauseStore store_;
  /// Per rule: soft groundings whose cost the evidence fixes
  /// (GroundingStats::fixed_cost_groundings). The fixed cost derives from
  /// these counts, never accumulated.
  std::vector<uint64_t> rule_fixed_groundings_;
  /// Per rule: number of hard-clause groundings violated by evidence
  /// alone (a count so binding-level deltas can add/retract violations).
  std::vector<int64_t> rule_contradiction_;
  /// Per rule: no universal variables (the one binding is the empty
  /// one) and the plain query's binding-literal mask.
  std::vector<uint8_t> rule_trivial_;
  std::vector<uint64_t> rule_binding_mask_;

  bool initialized_ = false;
  /// Set when a delta failed after mutation began (see ApplyDelta).
  bool poisoned_ = false;
};

}  // namespace tuffy

#endif  // TUFFY_SERVE_DELTA_GROUNDER_H_
