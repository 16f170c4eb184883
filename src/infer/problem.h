#ifndef TUFFY_INFER_PROBLEM_H_
#define TUFFY_INFER_PROBLEM_H_

#include <cstdint>
#include <vector>

#include "ground/ground_clause.h"

namespace tuffy {

/// A self-contained MaxSAT search problem: the whole MRF, one connected
/// component, or one partition with its cut clauses conditioned on the
/// frozen values of external atoms. Its clauses are stored once, in the
/// flat CSR ("arena") layout every WalkSatState over the problem reads
/// (see docs/INFER_KERNEL.md). Literals use GroundClause's signed
/// encoding but reference *local* atom ids when the problem is a sub-MRF.
///
/// The literals of clause `c` live contiguously in
/// `lit_data[clause_offsets[c] .. clause_offsets[c+1])`, with the signed
/// weight, its precomputed absolute value, and the hard / positive flags
/// in parallel arrays indexed by clause. `positive[c]` caches the
/// violation convention of Section 2.2: a clause with w >= 0 (or hard) is
/// violated when no literal is true, a clause with w < 0 when some
/// literal is true. `abs_weight` is precomputed so search states resolve
/// effective clause costs with a single load — no fabs() or hard-ness
/// branch anywhere near the flip loop. SetWeight keeps both in step with
/// `weight`.
///
/// The atom-side occurrence lists live in WalkSatState, not here: their
/// entries embed the effective clause cost, which depends on the state's
/// hard_weight.
///
/// AddClause normalizes each clause: exact duplicate literals are
/// dropped (logically redundant in a disjunction) and a clause containing
/// both x and !x is marked `frozen` — its truth value is constant, so it
/// is kept for cost accounting (a negative-weight tautology is
/// permanently violated) but excluded from the flip bookkeeping, where
/// the counter arithmetic assumes one literal per atom. Ground clauses
/// from a GroundClauseStore are already sorted, duplicate-free and
/// non-tautological, so for them the normalization changes nothing.
///
/// Clear keeps vector capacity, which lets MC-SAT rebuild its per-round
/// slice with no steady-state allocation.
struct Problem {
  size_t num_atoms = 0;
  std::vector<uint32_t> clause_offsets{0};  // size num_clauses() + 1
  std::vector<Lit> lit_data;
  std::vector<double> weight;      // signed rule weight
  std::vector<double> abs_weight;  // fabs(weight), a single load
  std::vector<uint8_t> hard;
  std::vector<uint8_t> positive;  // hard || weight >= 0
  std::vector<uint8_t> frozen;    // tautology: constant truth value

  size_t num_clauses() const { return clause_offsets.size() - 1; }
  uint32_t clause_size(uint32_t c) const {
    return clause_offsets[c + 1] - clause_offsets[c];
  }
  const Lit* clause_lits(uint32_t c) const {
    return lit_data.data() + clause_offsets[c];
  }

  /// True iff clause `c` has a true literal under `truth`.
  bool Satisfied(uint32_t c, const std::vector<uint8_t>& truth) const {
    const Lit* lits = clause_lits(c);
    const uint32_t len = clause_size(c);
    for (uint32_t i = 0; i < len; ++i) {
      if ((truth[LitAtom(lits[i])] != 0) == LitPositive(lits[i])) return true;
    }
    return false;
  }

  /// Exact cost of a truth assignment, by definition (Eq. 1): the sum of
  /// |w| over violated clauses, where a clause with w > 0 (or hard) is
  /// violated when false and a clause with w < 0 is violated when true.
  /// Hard clauses contribute `hard_weight` each. Reads only the literals,
  /// `weight` and `hard` — none of the kernel's derived arrays — so it is
  /// the reference the search kernel is checked against.
  double EvalCost(const std::vector<uint8_t>& truth,
                  double hard_weight) const;

  /// Rewrites clause `c`'s weight in place, with its `abs_weight` and
  /// `positive`. A WalkSatState over the problem must be re-attached.
  void SetWeight(uint32_t c, double w);

  /// Bytes held by the clause arrays (capacities, i.e. the real
  /// footprint of the flat layout).
  size_t EstimateBytes() const;

  /// Drops every clause, keeping allocated capacity and num_atoms.
  void Clear();
  /// Makes room for `clauses` more clauses holding `lits` literals.
  void Reserve(size_t clauses, size_t lits);
  /// Appends one clause.
  void AddClause(const Lit* lits, size_t n, double w, bool is_hard);
};

/// A sub-problem over a subset of the global atoms, with the local-to-
/// global atom id mapping retained so results can be merged back.
struct SubProblem {
  Problem problem;
  /// global_atom[local_id] = global AtomId.
  std::vector<AtomId> global_atom;
};

/// Builds the trivial whole-MRF problem (identity atom mapping).
Problem MakeWholeProblem(size_t num_atoms,
                         const std::vector<GroundClause>& clauses);

/// Builds the sub-problem spanned by `atom_ids`, containing the clauses
/// `clause_ids` (which must only reference those atoms). Literal atom ids
/// are renumbered to 0..atom_ids.size()-1: atom a becomes
/// `position_of_atom[a]`, its position in `atom_ids` (a component's
/// ComponentSet::position_of_atom). The arrays are sized once, before the
/// clauses are appended.
SubProblem BuildSubProblem(const std::vector<GroundClause>& all_clauses,
                           const std::vector<uint32_t>& clause_ids,
                           const std::vector<AtomId>& atom_ids,
                           const std::vector<uint32_t>& position_of_atom);

/// Builds the conditioned sub-problem for Gauss-Seidel partition search
/// (Section 3.4): like BuildSubProblem over partition `partition`
/// (`position_of_atom` is PartitionResult::position_of_atom), but
/// additionally takes the cut clauses and the current global truth
/// assignment. A cut literal over an external atom is resolved against
/// `global_truth`: a true literal satisfies (drops) the clause, a false
/// one is removed.
SubProblem BuildConditionedSubProblem(
    const std::vector<GroundClause>& all_clauses,
    const std::vector<uint32_t>& clause_ids,
    const std::vector<uint32_t>& cut_clause_ids,
    const std::vector<AtomId>& atom_ids,
    const std::vector<int32_t>& partition_of_atom,
    const std::vector<uint32_t>& position_of_atom, int32_t partition,
    const std::vector<uint8_t>& global_truth);

}  // namespace tuffy

#endif  // TUFFY_INFER_PROBLEM_H_
