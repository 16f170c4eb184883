#ifndef TUFFY_SERVE_DELTA_GROUNDER_H_
#define TUFFY_SERVE_DELTA_GROUNDER_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "durability/serialize.h"
#include "ground/ground_clause.h"
#include "ground/grounding.h"
#include "mln/model.h"
#include "ra/catalog.h"
#include "ra/optimizer.h"
#include "storage/evidence_side_tables.h"
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

/// Outcome of one DeltaGrounder::ApplyDelta call: what changed in the
/// ground clause set, and which session atoms the edits touched (the seed
/// set of the dirty-component computation).
struct GroundEdits {
  /// True when the delta was a semantic no-op (every assertion matched
  /// the existing evidence, every retraction named an absent atom): the
  /// clause set, side tables, and caches were not touched at all.
  bool no_op = false;
  size_t rules_reground = 0;
  /// Of rules_reground, how many went through the binding-level path
  /// (delta semi-join) instead of a full rule re-ground.
  size_t rules_delta_ground = 0;
  /// Candidate bindings re-resolved by the binding-level path (old and
  /// new evidence sides combined). The delta path's work scales with
  /// this, not with the touched relations' sizes.
  size_t bindings_resolved = 0;
  size_t clauses_added = 0;
  size_t clauses_removed = 0;
  size_t clauses_reweighted = 0;
  /// Rows materialized for table maintenance this delta: the
  /// binding-level delta relations (the changed atoms) and the new-true
  /// segments of the union relations. The side tables themselves are
  /// updated in place by the EvidenceDb listener hook and scanned in
  /// place, so this scales with the delta — never with the touched
  /// relations or |evidence| (tests/antijoin_test.cc pins both down).
  size_t maintenance_rows = 0;
  /// Deduplicated session atom ids appearing in any edited clause.
  std::vector<AtomId> dirty_atoms;
  double ground_seconds = 0.0;
};

/// Incremental grounding for long-lived inference sessions. Grounds the
/// whole program once (bottom-up, through the RA layer), then serves
/// evidence deltas by re-grounding only the first-order rules whose
/// literals mention a predicate the delta touched, diffing each rule's
/// new ground clauses against its previous ones, and applying the
/// resulting add / remove / reweight edits in place to the resident
/// clause list.
///
/// Touched rules re-ground at *binding granularity* when
/// GroundingOptions::binding_level_deltas is set (the default): instead
/// of re-running a rule's whole binding query, the changed atoms of each
/// touched predicate are joined (per literal occurrence) against the
/// rest of the rule body — with the other touched binding relations
/// widened to old-or-new true rows — which enumerates a superset of the
/// bindings whose ground clause could have changed. Each affected
/// binding is resolved under the old and the new evidence, and the
/// contribution difference is applied to the per-rule clause maps, so
/// the re-ground cost scales with the delta size rather than the
/// touched relations' sizes. Oversized deltas fall back to the full
/// per-rule re-ground.
///
/// Resident state: the evidence side tables (maintained in place per
/// changed atom, re-ANALYZEd per touched closed-world predicate), an RA
/// catalog of domain tables, a grow-only session AtomStore, and per-rule
/// clause maps keyed by sorted literal sets so cross-rule weight merging
/// stays exact under any edit order.
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

  /// Builds the side tables and domain tables and grounds every rule
  /// against `initial_evidence`. Call exactly once, before any
  /// ApplyDelta.
  Status Initialize(const EvidenceDb& initial_evidence);

  /// Applies one evidence delta: updates the resident evidence copy (and
  /// with it the side tables), re-grounds the affected rules, and edits
  /// the clause list in place. A delta naming an unknown predicate, the
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

  /// The resident ground clause set. Clause order is not stable across
  /// deltas (removal is swap-with-last); literal order within a clause is
  /// sorted.
  const std::vector<GroundClause>& clauses() const { return clauses_; }

  /// Cost contributed by clauses fully determined by the evidence,
  /// summed over rules (same semantics as GroundingResult::fixed_cost).
  double fixed_cost() const;

  /// True if any rule currently has a hard clause violated by evidence
  /// alone.
  bool hard_contradiction() const;

  /// The accumulated evidence the current clause set reflects.
  const EvidenceDb& evidence() const { return evidence_; }

  /// Rough resident footprint: clause list, per-rule maps, atom store,
  /// side tables, and domain tables.
  size_t EstimateBytes() const;

  /// Serializes the full resident state (evidence side tables, atom
  /// store, clause list, per-rule contribution maps) into `out`.
  /// Everything a snapshot needs to reconstruct a grounder whose later
  /// deltas evolve bit-identically to the never-saved original.
  void SaveState(BinaryWriter* out) const;

  /// Counterpart of SaveState: restores a grounder constructed with the
  /// same program and options, *instead of* Initialize. Derived
  /// structures (catalog, side-table stats, evidence map, global clause
  /// index) are rebuilt from the serialized primaries; Corruption on any
  /// layout or invariant violation.
  Status LoadState(BinaryReader* in);

 private:
  /// One rule's merged contribution to a literal set: summed soft weight
  /// over that rule's duplicate groundings, plus how many groundings
  /// contribute (and how many of them are hard). Counts — not booleans —
  /// so the binding-level delta path can retract a single grounding's
  /// share without re-deriving the rest.
  struct Contribution {
    double weight = 0.0;
    int64_t hard = 0;
    int64_t count = 0;
  };
  using RuleMap =
      std::unordered_map<std::vector<Lit>, Contribution, LitVectorHash>;

  /// One side (old or new evidence) of a binding-level re-ground.
  struct RulePart {
    RuleMap map;
    double fixed_cost = 0.0;
    int64_t hard_violations = 0;
  };

  /// Aggregated entry across rules for one literal set.
  struct GlobalEntry {
    double weight = 0.0;  // sum of soft contributions
    int32_t hard_refs = 0;
    int32_t contribs = 0;  // number of rules contributing
    uint32_t index = 0;    // position in clauses_
  };

  /// Contribution delta accumulated across all re-ground rules before
  /// application, so a clause touched by several rules is edited once.
  struct PendingEdit {
    double dweight = 0.0;
    int32_t dhard = 0;
    int32_t dcontribs = 0;
  };
  using PendingEdits =
      std::unordered_map<std::vector<Lit>, PendingEdit, LitVectorHash>;

  /// Builds everything derivable from program + side tables: the
  /// predicate->rules fan-out, the domain-table catalog, the closed-world
  /// side tables' stats (a pure function of their rows and row order, so
  /// the same whether the grounder was initialized fresh or restored
  /// from a snapshot), and the per-rule binding-query metadata. Shared
  /// by Initialize and LoadState.
  Status BuildDerivedState();

  /// Re-grounds one rule into a fresh RuleMap (remapped to session atom
  /// ids) and replaces its fixed-cost / contradiction entries.
  Result<RuleMap> GroundRule(int rule_idx);

  /// Remaps a rule-local grounding result into session atom ids,
  /// accumulating per-literal-set contributions (grounding counts come
  /// from the store's rule-contribution index; weights derive as
  /// rule-weight x count so every re-ground path agrees exactly).
  void RuleMapFromResult(int rule_idx, const GroundingResult& local,
                         RuleMap* out);

  /// Resolves the given candidate bindings of one rule against the
  /// *current* resident evidence into a RulePart. Called once before the
  /// evidence mutation (old side) and once after (new side).
  Result<RulePart> ResolveBindings(int rule_idx,
                                   const std::vector<Assignment>& bindings);

  /// True when every plain binding literal of the rule holds (atom true)
  /// under the current resident evidence for `binding` — i.e. the full
  /// rule query would enumerate this binding right now.
  bool BindingEnumerated(int rule_idx, const Assignment& binding) const;

  /// Applies (new_part - old_part) of a binding-level re-ground to
  /// rule_maps_[rule_idx] and records the global pending edits.
  void ApplyParts(int rule_idx, const RulePart& old_part,
                  const RulePart& new_part, PendingEdits* pending);

  /// Diffs `next` against rule_maps_[rule_idx] into `pending`.
  void DiffRule(int rule_idx, const RuleMap& next, PendingEdits* pending);

  /// Applies accumulated contribution deltas to the global map and the
  /// clause list, recording edit counts and dirty atoms.
  void ApplyPendingEdits(PendingEdits pending, GroundEdits* edits);

  const MlnProgram& program_;
  GroundingOptions ground_options_;
  OptimizerOptions optimizer_options_;

  EvidenceDb evidence_;
  /// Per-predicate true/false side tables mirroring `evidence_`, kept
  /// current incrementally (attached as the EvidenceDb's listener after
  /// the initial Rebuild). The relations binding literals scan (alone or
  /// as the old-true segment of a union), plus anti-join pruning and the
  /// pattern-count index — the serving path never rescans the evidence
  /// map after Initialize.
  EvidenceSideTables side_tables_;
  /// Domain tables only (LoadMlnTables).
  Catalog catalog_;
  /// Predicate -> rules with a literal over it (delta fan-out).
  std::vector<std::vector<int>> rules_of_predicate_;

  AtomStore atoms_;
  std::vector<RuleMap> rule_maps_;
  std::vector<double> rule_fixed_cost_;
  /// Per rule: number of hard-clause groundings violated by evidence
  /// alone (a count so binding-level deltas can add/retract violations).
  std::vector<int64_t> rule_contradiction_;
  /// Per rule: no universal variables (single empty binding; always
  /// re-ground in full) and the plain query's binding-literal mask.
  std::vector<uint8_t> rule_trivial_;
  std::vector<uint64_t> rule_binding_mask_;
  std::unordered_map<std::vector<Lit>, GlobalEntry, LitVectorHash> global_;
  std::vector<GroundClause> clauses_;

  bool initialized_ = false;
  /// Set when a delta failed after mutation began (see ApplyDelta).
  bool poisoned_ = false;
};

}  // namespace tuffy

#endif  // TUFFY_SERVE_DELTA_GROUNDER_H_
