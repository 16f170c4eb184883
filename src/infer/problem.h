#ifndef TUFFY_INFER_PROBLEM_H_
#define TUFFY_INFER_PROBLEM_H_

#include <cstdint>
#include <vector>

#include "ground/ground_clause.h"

namespace tuffy {

/// A weighted ground clause in search form. Literals use the same signed
/// encoding as GroundClause but reference *local* atom ids when the
/// problem is a sub-MRF.
struct SearchClause {
  std::vector<Lit> lits;
  double weight = 0.0;
  bool hard = false;
};

/// Flat CSR ("arena") view of a clause set — the search-kernel layout
/// shared by every WalkSatState over a problem (see docs/INFER_KERNEL.md).
///
/// The literals of clause `c` live contiguously in
/// `lit_data[clause_offsets[c] .. clause_offsets[c+1])`, with the signed
/// weight, its precomputed absolute value, and the hard / positive flags
/// in parallel arrays indexed by clause. `positive[c]` caches the
/// violation convention of Section 2.2: a clause with w >= 0 (or hard) is
/// violated when no literal is true, a clause with w < 0 when some
/// literal is true. `abs_weight` is precomputed so search states resolve
/// effective clause costs with a single load — no fabs() or hard-ness
/// branch anywhere near the flip loop.
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
/// the counter arithmetic assumes one literal per atom.
///
/// The appending API (Clear / AddClause / Finish) reuses vector capacity,
/// which lets MC-SAT rebuild its per-round slice arena with no
/// steady-state allocation.
struct ClauseArena {
  std::vector<uint32_t> clause_offsets;  // size num_clauses() + 1
  std::vector<Lit> lit_data;
  std::vector<double> weight;      // signed rule weight
  std::vector<double> abs_weight;  // fabs(weight), a single load
  std::vector<uint8_t> hard;
  std::vector<uint8_t> positive;  // hard || weight >= 0
  std::vector<uint8_t> frozen;    // tautology: constant truth value
  size_t num_atoms = 0;

  size_t num_clauses() const {
    return clause_offsets.empty() ? 0 : clause_offsets.size() - 1;
  }
  uint32_t clause_size(uint32_t c) const {
    return clause_offsets[c + 1] - clause_offsets[c];
  }
  const Lit* clause_lits(uint32_t c) const {
    return lit_data.data() + clause_offsets[c];
  }

  /// Bytes held by the arena's arrays (capacities, i.e. the real
  /// footprint of the flat layout).
  size_t EstimateBytes() const;

  /// Resets to an empty clause set, keeping allocated capacity.
  void Clear();
  /// Appends one clause.
  void AddClause(const Lit* lits, size_t n, double w, bool is_hard);
  /// Records the atom count. Must be called after the last AddClause and
  /// before the arena is searched.
  void Finish(size_t n_atoms) { num_atoms = n_atoms; }
  /// Clear + AddClause for each + Finish.
  void BuildFrom(size_t n_atoms, const std::vector<SearchClause>& clauses);
};

/// A self-contained MaxSAT search problem: the whole MRF, one connected
/// component, or one partition with its cut clauses conditioned on the
/// frozen values of external atoms.
struct Problem {
  size_t num_atoms = 0;
  std::vector<SearchClause> clauses;

  /// Exact cost of a truth assignment, by definition (Eq. 1): the sum of
  /// |w| over violated clauses, where a clause with w > 0 (or hard) is
  /// violated when false and a clause with w < 0 is violated when true.
  /// Hard clauses contribute `hard_weight` each.
  double EvalCost(const std::vector<uint8_t>& truth,
                  double hard_weight) const;

  /// The CSR search view of `clauses`, built on first use and cached.
  /// `clauses` and `num_atoms` must not change afterwards (call
  /// InvalidateArena() if they do). Not safe to trigger the first build
  /// from multiple threads concurrently.
  const ClauseArena& arena() const {
    if (!arena_built_) {
      arena_.BuildFrom(num_atoms, clauses);
      arena_built_ = true;
    }
    return arena_;
  }
  void InvalidateArena() { arena_built_ = false; }

 private:
  mutable ClauseArena arena_;
  mutable bool arena_built_ = false;
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
/// are renumbered to 0..atom_ids.size()-1.
SubProblem BuildSubProblem(const std::vector<GroundClause>& all_clauses,
                           const std::vector<uint32_t>& clause_ids,
                           const std::vector<AtomId>& atom_ids);

/// Builds the conditioned sub-problem for Gauss-Seidel partition search
/// (Section 3.4): like BuildSubProblem, but additionally takes the cut
/// clauses and the current global truth assignment. A cut literal over an
/// external atom is resolved against `global_truth`: a true literal
/// satisfies (drops) the clause, a false one is removed.
SubProblem BuildConditionedSubProblem(
    const std::vector<GroundClause>& all_clauses,
    const std::vector<uint32_t>& clause_ids,
    const std::vector<uint32_t>& cut_clause_ids,
    const std::vector<AtomId>& atom_ids,
    const std::vector<int32_t>& partition_of_atom, int32_t partition,
    const std::vector<uint8_t>& global_truth);

}  // namespace tuffy

#endif  // TUFFY_INFER_PROBLEM_H_
