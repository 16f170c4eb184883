#ifndef TUFFY_INFER_WALKSAT_H_
#define TUFFY_INFER_WALKSAT_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "infer/problem.h"
#include "util/rng.h"
#include "util/timer.h"

namespace tuffy {

/// One sample of a time-cost trace (the curves of Figures 3-6).
struct TracePoint {
  double seconds = 0.0;
  uint64_t flips = 0;
  double cost = 0.0;
};

struct WalkSatOptions {
  uint64_t max_flips = 100000;
  /// Probability of a random (non-greedy) flip, Algorithm 1 line 7.
  double p_random = 0.5;
  /// Effective |weight| of hard clauses during search.
  double hard_weight = 1e6;
  double timeout_seconds = std::numeric_limits<double>::infinity();
  /// If > 0, appends a TracePoint to the result every N flips.
  uint64_t trace_every_flips = 0;
  /// Optional externally supplied start (a random assignment when null).
  /// Must have problem.num_atoms entries.
  const std::vector<uint8_t>* initial = nullptr;
};

struct WalkSatResult {
  std::vector<uint8_t> best_truth;
  double best_cost = std::numeric_limits<double>::infinity();
  uint64_t flips = 0;
  double seconds = 0.0;
  std::vector<TracePoint> trace;
  /// Actual bytes of the search state + problem this run held in memory
  /// (WalkSatState::EstimateBytes when the search ends +
  /// Problem::EstimateBytes).
  size_t state_bytes = 0;

  double FlipsPerSecond() const {
    return seconds > 0 ? static_cast<double>(flips) / seconds : 0.0;
  }
};

/// Incremental clause-evaluation state shared by WalkSAT and SampleSAT,
/// running off a Problem's flat arrays: per-clause true-literal counts,
/// the violated set, cached per-atom flip-cost deltas (UBCSAT-style
/// make/break bookkeeping), and O(degree(atom)) flips with O(1)
/// FlipDelta reads. A clause with w >= 0 (or hard) is violated when no
/// literal is true; a clause with w < 0 is violated when some literal is
/// true (Section 2.2). See docs/INFER_KERNEL.md for the layout and the
/// invariants tying truth_, num_true_, flip_delta_, and cost_ together.
class WalkSatState {
 public:
  /// The problem must outlive the state. Starts all-false, bookkeeping
  /// built.
  WalkSatState(const Problem* problem, double hard_weight);

  /// Re-attaches to a (possibly different or re-weighted) problem, reusing
  /// this state's buffers — the zero-allocation path MC-SAT uses once per
  /// sample. The assignment is reset to all-false but the derived
  /// bookkeeping is NOT rebuilt: call one of the assignment setters below
  /// (each rebuilds) before querying or flipping.
  void Attach(const Problem* problem, double hard_weight);

  void SetAssignment(const std::vector<uint8_t>& truth);
  void RandomAssignment(Rng* rng);

  double cost() const { return cost_; }
  size_t num_violated() const { return violated_.size(); }
  bool HasViolated() const { return !violated_.empty(); }

  /// Uniformly random violated clause index. Requires HasViolated().
  uint32_t SampleViolated(Rng* rng) const {
    return violated_[rng->Uniform(violated_.size())];
  }

  /// Cost change if `atom` were flipped — a cached O(1) read.
  double FlipDelta(AtomId atom) const { return flip_delta_[atom]; }

  /// Flips `atom`, updating all bookkeeping (including the cached deltas
  /// of every atom sharing a clause whose criticality changed).
  void Flip(AtomId atom);

  const std::vector<uint8_t>& truth() const { return truth_; }
  const Problem& problem() const { return *problem_; }
  double hard_weight() const { return hard_weight_; }

  /// Bytes held by this state's derived arrays (occurrence CSR, cached
  /// deltas, violated bookkeeping) — the search-state footprint that,
  /// with Problem::EstimateBytes, WalkSatResult::state_bytes reports.
  size_t EstimateBytes() const;

 private:
  /// One entry of an atom's occurrence list, self-contained so that unit
  /// and binary clauses — the bulk of every MLN workload — are handled
  /// without touching any per-clause state:
  ///  - `clause_and_sign` packs (clause index << 1) | literal-is-positive.
  ///  - `other` is (other atom << 1) | other-literal-is-positive for a
  ///    binary clause over two distinct atoms, kUnit for a unit clause,
  ///    kGeneral for anything else (length >= 3, or a degenerate binary
  ///    clause mentioning one atom twice) — those walk cstate_.
  ///  - `signed_cost` is +|w_eff| for a positive-convention clause (hard
  ///    or w >= 0), -|w_eff| for a negative one, with hard clauses
  ///    resolved to hard_weight at Attach. The sign *is* the violation
  ///    convention (std::signbit distinguishes, including w == 0 ->
  ///    +0.0), so the flip loop needs no weight array, fabs(), or
  ///    hard-ness branch.
  /// Occurrence lists are walked sequentially; at 16 bytes per entry the
  /// walk streams instead of gathering per-clause cache lines.
  struct OccEntry {
    uint32_t clause_and_sign;
    uint32_t other;
    double signed_cost;
  };
  static constexpr uint32_t kGeneral = 0xFFFFFFFEu;
  static constexpr uint32_t kUnit = 0xFFFFFFFFu;

  /// Mutable per-clause counters, consulted only for kGeneral clauses.
  struct ClauseState {
    int32_t num_true;
    /// Sum (mod 2^32) of the atom ids of the currently-true literals.
    /// When num_true == 1 this *is* the critical atom.
    uint32_t critical_sum;
  };

  void BuildOccurrences();
  void Rebuild();
  void SetViolated(uint32_t clause, bool violated, double cost);
  double SignedCost(uint32_t clause) const;

  const Problem* problem_;
  double hard_weight_;
  std::vector<uint8_t> truth_;
  /// Atom-side occurrence CSR (see OccEntry).
  std::vector<uint32_t> occ_offsets_;  // size num_atoms + 1
  std::vector<OccEntry> occ_entries_;
  std::vector<ClauseState> cstate_;
  /// Cached flip-cost delta per atom (see FlipDelta).
  std::vector<double> flip_delta_;
  std::vector<uint32_t> violated_;
  std::vector<int32_t> violated_pos_;  // index into violated_, or -1
  double cost_ = 0.0;
};

/// One WalkSAT move (Algorithm 1, lines 5-10), shared by
/// WalkSat::RunFlips and SampleSAT: sample a violated clause, then pick
/// either a random atom of it or the cached-delta minimizer. Requires
/// state.HasViolated().
inline AtomId ChooseWalkSatMove(const WalkSatState& state, double p_random,
                                Rng* rng) {
  const Problem& problem = state.problem();
  const uint32_t ci = state.SampleViolated(rng);
  const Lit* lits = problem.clause_lits(ci);
  const uint32_t len = problem.clause_size(ci);
  if (rng->NextDouble() <= p_random) {
    return LitAtom(lits[rng->Uniform(len)]);
  }
  double best_delta = std::numeric_limits<double>::infinity();
  AtomId chosen = LitAtom(lits[0]);
  for (uint32_t i = 0; i < len; ++i) {
    const AtomId a = LitAtom(lits[i]);
    const double d = state.FlipDelta(a);
    if (d < best_delta) {
      best_delta = d;
      chosen = a;
    }
  }
  return chosen;
}

/// Best-assignment bookkeeping that avoids copying the whole truth vector
/// on every improving flip. It keeps a base assignment plus a log of
/// atoms flipped since; an improvement folds the log into the base (O(#
/// flips since the last improvement), amortized O(1) per flip), and the
/// best assignment is materialized only on request.
class BestTruthTracker {
 public:
  /// Starts tracking with `truth` as the current best (cost `cost`).
  void Reset(const std::vector<uint8_t>& truth, double cost) {
    base_ = truth;
    log_.clear();
    best_cost_ = cost;
    pinned_ = false;
  }

  /// Restarts the flip log from `current` without losing the best seen
  /// so far.
  void RebaseTo(const std::vector<uint8_t>& current) {
    if (!pinned_) {
      cache_ = base_;  // pin the best before abandoning the log
      pinned_ = true;
    }
    base_ = current;
    log_.clear();
  }

  void OnFlip(AtomId atom) { log_.push_back(atom); }

  /// Records that the *current* assignment (base + log) is a new best.
  void OnImproved(double cost) {
    best_cost_ = cost;
    for (AtomId a : log_) base_[a] ^= 1;
    log_.clear();
    pinned_ = false;
  }

  /// Bounds log memory across long plateaus; call once per flip.
  void MaybeRebase(const std::vector<uint8_t>& current) {
    if (log_.size() > base_.size() + 64) RebaseTo(current);
  }

  double best_cost() const { return best_cost_; }
  /// The best assignment seen. The reference stays valid but its contents
  /// may change on the next OnImproved/Reset; copy to retain.
  const std::vector<uint8_t>& best_truth() const {
    return pinned_ ? cache_ : base_;
  }

 private:
  std::vector<uint8_t> base_;  // best assignment, or rebase point
  std::vector<AtomId> log_;    // flips applied on top of base_
  double best_cost_ = std::numeric_limits<double>::infinity();
  /// True when cache_ holds the best assignment and base_ is merely the
  /// current rebase point (no improvement since the last RebaseTo).
  bool pinned_ = false;
  std::vector<uint8_t> cache_;
};

/// The WalkSAT local search of Algorithm 1 (Kautz et al.), resumable: the
/// searcher owns its state across calls, so a scheduler can interleave
/// many sub-problems (weighted round-robin over MRF components, Section
/// 3.3) or search one partition per Gauss-Seidel step. It tracks the best
/// state seen on *this* problem, which is exactly the component-aware
/// bookkeeping of Theorem 3.1. RunFlips is the one flip loop; Run adds
/// a flip budget, a deadline and a time-cost trace around it.
class WalkSat {
 public:
  /// Draws the start: `options.initial` if set, else a random assignment.
  WalkSat(const Problem* problem, WalkSatOptions options, Rng* rng);

  /// Continues the search for up to `n` more flips (stops early at cost
  /// 0). Returns the number of flips actually performed. Ignores the
  /// options' flip budget, deadline and trace.
  uint64_t RunFlips(uint64_t n);

  /// Up to `max_flips` flips from the current state. Stops at cost 0, or
  /// once `timeout_seconds` since construction have passed (checked
  /// every 1024 flips).
  WalkSatResult Run();

  double best_cost() const { return best_.best_cost(); }
  const std::vector<uint8_t>& best_truth() const { return best_.best_truth(); }
  uint64_t flips() const { return flips_; }
  /// Bytes of the owned search state's derived arrays.
  size_t state_bytes() const { return state_.EstimateBytes(); }

 private:
  const Problem* problem_;
  WalkSatOptions options_;
  Rng* rng_;
  Timer clock_;  // Run's deadline and seconds count from construction
  WalkSatState state_;
  BestTruthTracker best_;
  uint64_t flips_ = 0;
};

}  // namespace tuffy

#endif  // TUFFY_INFER_WALKSAT_H_
