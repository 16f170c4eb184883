#ifndef TUFFY_INFER_EXACT_TRACTABLE_H_
#define TUFFY_INFER_EXACT_TRACTABLE_H_

#include <cstdint>
#include <vector>

#include "infer/problem.h"

namespace tuffy {

/// Widest bucket the exact solver accepts: an atom is eliminated with at
/// most this many residual neighbours, so one bucket table holds at most
/// 2^(kMaxExactWidth + 1) cells (docs/INFERENCE_EXACT.md gives the
/// measured cost of a full-width bucket).
constexpr int kMaxExactWidth = 12;

/// Which tractable fragment a component falls into (docs/
/// INFERENCE_EXACT.md). The fragments nest: kUnitOnly ⊂ kBoundedWidth,
/// and kConditioned is "kBoundedWidth after conditioning on
/// hard-unit-propagated atoms" — the TML-style case, where conditioning
/// on the forced part of the domain (alchemy-lite's subclass/fact
/// conditioning) shrinks wider clauses into the pairwise fragment.
enum class ExactFragment : uint8_t {
  kNotTractable = 0,
  /// Every residual clause is a unit clause (this covers clause-less and
  /// singleton components): atoms are independent.
  kUnitOnly,
  /// Unit + binary residual clauses whose atom-pair graph has a min-fill
  /// elimination order of width at most kMaxExactWidth (a forest is
  /// width 1; parallel clauses over one pair merge into a single
  /// pairwise table).
  kBoundedWidth,
  /// kUnitOnly/kBoundedWidth reached only after hard-unit propagation
  /// fixed one or more atoms.
  kConditioned,
};

const char* ExactFragmentName(ExactFragment fragment);

/// The residual pairwise structure of a tractable problem and its
/// elimination order, produced by AnalyzeTractable and consumed by the
/// exact solver. All costs are the |w| violation charges of Section 2.2,
/// partially evaluated against the forced atoms; hard violations are
/// kept as cell counts (the solver charges hard_weight for MAP and
/// probability zero for marginals).
struct TractableStructure {
  ExactFragment fragment = ExactFragment::kNotTractable;
  bool tractable() const { return fragment != ExactFragment::kNotTractable; }

  /// Per atom: -1 free, 0/1 pinned by hard-unit propagation.
  std::vector<int8_t> forced;
  /// Soft cost every world consistent with `forced` pays (clauses fully
  /// resolved by conditioning, plus negative-weight tautologies).
  double constant_cost = 0.0;
  /// Per-atom soft cost of assigning the atom false/true (residual unit
  /// clauses; residual hard clauses are never unit — propagation ate
  /// them).
  std::vector<double> unary;  // 2 * num_atoms, [2*a + value]
  /// One merged pairwise table per atom pair with binary residual
  /// clauses. cost/hard are indexed [2*u_value + v_value].
  struct Edge {
    uint32_t u = 0, v = 0;  // u < v, both unforced
    double cost[4] = {0, 0, 0, 0};
    // Number of hard clauses violated in this cell — a count, not a
    // flag, so MAP's hard_weight charge matches EvalCost exactly even
    // when several hard clauses share the cell.
    uint8_t hard[4] = {0, 0, 0, 0};
  };
  std::vector<Edge> edges;
  /// Every unforced atom, in greedy min-fill elimination order (fewest
  /// fill edges, then lowest degree, then lowest atom id, among atoms
  /// whose current degree is at most kMaxExactWidth).
  std::vector<uint32_t> order;
  /// The separator of order[i]: the positions in `order` of its
  /// neighbours when it was eliminated, ascending (all > i), stored as
  /// sep[sep_off[i] .. sep_off[i + 1]).
  std::vector<uint32_t> sep_off, sep;
  /// The order's width: the largest separator.
  int width = 0;
};

/// Detects whether `problem` lies in the tractable fragment and, if so,
/// builds the residual structure and the elimination order the exact
/// solver runs on. Not tractable when: hard-unit propagation derives a
/// contradiction, a residual clause keeps more than two unforced atoms
/// (checked before any ordering), or no atom left in the order can be
/// eliminated with at most kMaxExactWidth neighbours. Linear in the
/// problem size for bounded clause width and bounded width; the order
/// updates fill counts only around each eliminated atom.
TractableStructure AnalyzeTractable(const Problem& problem);

}  // namespace tuffy

#endif  // TUFFY_INFER_EXACT_TRACTABLE_H_
