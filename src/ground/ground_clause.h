#ifndef TUFFY_GROUND_GROUND_CLAUSE_H_
#define TUFFY_GROUND_GROUND_CLAUSE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "mln/model.h"
#include "util/id_index.h"

namespace tuffy {

/// Index of a ground atom in an AtomStore.
using AtomId = uint32_t;

/// Signed literal encoding used in ground clauses: +(aid+1) for a positive
/// literal, -(aid+1) for a negative one (0 is never a valid literal).
using Lit = int32_t;

inline Lit MakeLit(AtomId atom, bool positive) {
  return positive ? static_cast<Lit>(atom + 1) : -static_cast<Lit>(atom + 1);
}
inline AtomId LitAtom(Lit lit) {
  return static_cast<AtomId>((lit > 0 ? lit : -lit) - 1);
}
inline bool LitPositive(Lit lit) { return lit > 0; }

/// A ground clause of the MRF: a disjunction of literals over ground
/// atoms. In a GroundClauseStore fed by grounding, its weight and hard
/// flag derive from the store's per-rule grounding counts
/// (GroundClauseStore::DeriveWeight). Hard clauses must be satisfied in
/// every world.
struct GroundClause {
  std::vector<Lit> lits;
  double weight = 0.0;
  bool hard = false;
  /// Source rule, for diagnostics and provenance.
  int rule_id = -1;
};

/// Registry of the ground atoms that appear in surviving ground clauses
/// (the paper's query atoms). Atom ids are dense and start at 0.
class AtomStore {
 public:
  /// Returns the id for `atom`, allocating a fresh one if unseen.
  AtomId GetOrCreate(const GroundAtom& atom);

  /// Sets `*out` to `atom`'s id and returns true, or returns false if the
  /// atom is absent.
  bool Find(const GroundAtom& atom, AtomId* out) const;

  const GroundAtom& atom(AtomId id) const { return atoms_[id]; }
  size_t num_atoms() const { return atoms_.size(); }

  /// Pretty-prints atom `id` using the program's symbol table.
  std::string AtomName(const MlnProgram& program, AtomId id) const {
    return AtomName(program, atoms_[id]);
  }
  /// Pretty-prints any ground atom, interned here or not (the atoms of a
  /// wire reply, say).
  static std::string AtomName(const MlnProgram& program,
                              const GroundAtom& atom);

 private:
  /// Keyed by GroundAtomHash, compared against atoms_ in place.
  IdIndex index_;
  std::vector<GroundAtom> atoms_;
};

/// One first-order rule's contribution to a ground clause: `count`
/// groundings of rule `rule_id` produced this literal set. Weight
/// learning needs the full multiset (a satisfied merged clause counts
/// once per contributing grounding), so merging keeps every source; a
/// serving session adds and retracts single groundings through the
/// same counts.
struct RuleContribution {
  int32_t rule_id = -1;
  uint32_t count = 0;
};

/// Hash over a literal vector, the key hash of GroundClauseStore's
/// duplicate index. Its low bits depend only on the literals' low bits,
/// so a power-of-two table must mix before masking (IdIndex does).
struct LitVectorHash {
  size_t operator()(const std::vector<Lit>& lits) const {
    size_t h = 0x9E3779B97F4A7C15ull;
    for (Lit l : lits) h = h * 1315423911u ^ std::hash<Lit>{}(l);
    return h;
  }
};

/// Each first-order rule's weight and hard flag, indexed by rule id
/// (the program's clause index): what a ground clause's weight
/// (GroundClauseStore::DeriveWeight) and the fixed cost (FixedCost)
/// derive from. Batch grounding, serving, snapshots and learning all
/// take these two derivations, so neither depends on how a rule was
/// split or in what order its groundings arrived. A learner rewrites
/// `weight` between epochs.
struct RuleWeights {
  explicit RuleWeights(const MlnProgram& program);

  /// The cost of `count` groundings of rule `rule` whose outcome the
  /// evidence fixes: count x |weight|, 0 for a hard rule.
  double FixedCost(size_t rule, uint64_t count) const;
  /// FixedCost of counts[r] groundings of each rule r, summed in
  /// ascending rule order.
  double FixedCost(const std::vector<uint64_t>& counts) const;

  std::vector<double> weight;
  std::vector<uint8_t> hard;
};

/// Accumulates ground clauses, merging duplicates (same sorted literal
/// set), the standard grounding optimization. Each clause keeps its
/// provenance, a grounding count per source rule (see
/// RuleContribution); its weight and hard flag derive from those counts
/// (DeriveWeight). The counts are what BuildRuleCountIndex flattens for
/// the learning subsystem, and what a serving session (DeltaGrounder)
/// edits as evidence changes.
class GroundClauseStore {
 public:
  /// Returned by Add when the clause is a tautology and was dropped.
  static constexpr size_t kTautology = static_cast<size_t>(-1);

  /// Adds a clause (lits need not be sorted), merging with an existing
  /// identical clause: its weight adds to the clause's, a hard clause
  /// makes it hard, and it counts one grounding of its rule_id. For
  /// stores built by hand, whose rule ids name no program rule. Returns
  /// the clause index, or kTautology.
  size_t Add(GroundClause clause);

  /// The emitters' insert: sorts and dedups `*lits` (a caller-owned
  /// scratch buffer, left in sorted state) and counts one grounding of
  /// rule `rule_id` on its clause, appending the clause (weight 0, soft)
  /// if it is new; only then is the literal vector copied. The caller
  /// derives the weight and hard flag from the counts once every
  /// grounding is in (DeriveWeight). Returns the clause index, or
  /// kTautology.
  size_t AddFromScratch(std::vector<Lit>* lits, int rule_id);

  /// Sets `*idx` to the index of the clause whose literal set is `lits`
  /// (sorted, as stored) and returns true, or returns false if there is
  /// none.
  bool Find(const std::vector<Lit>& lits, size_t* idx) const;

  /// Returns the index of the clause whose literal set is `lits`
  /// (sorted, as stored) and clears `*added`. If there is none, appends
  /// one — soft, weight 0, no contributions yet — and sets `*added`; the
  /// caller then gives it counts with AddRuleCount, or removes it again.
  size_t FindOrAppend(const std::vector<Lit>& lits, bool* added);

  /// Adds `delta` groundings of rule `rule_id` to clause `idx` (a
  /// negative delta retracts them) and returns the rule's count before.
  /// A count that reaches 0 drops the rule from the clause's provenance.
  /// The clause's weight and hard flag are the caller's to keep.
  uint32_t AddRuleCount(size_t idx, int32_t rule_id, int64_t delta);

  /// Removes clause `idx`: the last clause, with its provenance, moves
  /// into its place, and the duplicate index renumbers in step.
  void SwapRemove(size_t idx);

  const std::vector<GroundClause>& clauses() const { return clauses_; }
  std::vector<GroundClause>& mutable_clauses() { return clauses_; }
  size_t num_clauses() const { return clauses_.size(); }

  /// Invokes fn(rule_id, count) for each rule contribution merged into
  /// clause `idx`, in ascending rule order whatever order the rules
  /// arrived in (none only for a clause FindOrAppend just added). The
  /// first contribution — almost always the only one — is stored
  /// inline; only clauses fed by multiple distinct rules touch the side
  /// table.
  template <typename Fn>
  void ForEachContribution(size_t idx, Fn&& fn) const {
    const RuleContribution& first = first_contrib_[idx];
    if (first.count == 0) return;
    fn(first.rule_id, first.count);
    auto it = extra_contribs_.find(idx);
    if (it == extra_contribs_.end()) return;
    for (const RuleContribution& rc : it->second) fn(rc.rule_id, rc.count);
  }

  /// Clause `idx`'s weight and hard flag, derived from its rule counts:
  /// the sum of rule_weights[rule] x count in ascending rule order, where
  /// a rule flagged in `rule_hard` adds no weight and makes the clause
  /// hard (a rule outside the vectors, from a hand-built clause, adds
  /// nothing). Batch grounding, serving edits, snapshot loads and
  /// learning epochs all take this one sum, over RuleWeights' vectors.
  /// Returns false when no rule contributes.
  bool DeriveWeight(size_t idx, const std::vector<double>& rule_weights,
                    const std::vector<uint8_t>& rule_hard, double* weight,
                    bool* hard) const;

  /// Rough memory footprint of the clause table, for Table 4.
  size_t EstimateBytes() const;

 private:
  std::vector<GroundClause> clauses_;
  /// Duplicate index keyed by LitVectorHash of the sorted literal set,
  /// compared against clauses_ in place.
  IdIndex index_;
  /// Parallel to clauses_: the lowest rule's grounding multiplicity,
  /// inline so the common single-rule clause costs no extra allocation.
  /// Count 0 means no contributions; a clause with extras always has a
  /// first.
  std::vector<RuleContribution> first_contrib_;
  /// Clause index -> further distinct rules' multiplicities, ascending
  /// by rule (rare).
  std::unordered_map<size_t, std::vector<RuleContribution>> extra_contribs_;
};

}  // namespace tuffy

#endif  // TUFFY_GROUND_GROUND_CLAUSE_H_
