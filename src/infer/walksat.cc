#include "infer/walksat.h"

#include <algorithm>
#include <cmath>

namespace tuffy {

WalkSatState::WalkSatState(const Problem* problem, double hard_weight) {
  Attach(problem, hard_weight);
  Rebuild();
}

double WalkSatState::SignedCost(uint32_t clause) const {
  const double w =
      problem_->hard[clause] ? hard_weight_ : problem_->abs_weight[clause];
  return problem_->positive[clause] ? w : -w;
}

void WalkSatState::BuildOccurrences() {
  const Problem& a = *problem_;
  const size_t n_atoms = a.num_atoms;
  const size_t n_clauses = a.num_clauses();
  // Counting sort of occurrence entries by atom. Frozen clauses have a
  // constant truth value and take no part in flip bookkeeping.
  occ_offsets_.assign(n_atoms + 1, 0);
  size_t total = 0;
  for (uint32_t c = 0; c < n_clauses; ++c) {
    if (a.frozen[c]) continue;
    const Lit* lits = a.clause_lits(c);
    const uint32_t len = a.clause_size(c);
    for (uint32_t i = 0; i < len; ++i) ++occ_offsets_[LitAtom(lits[i]) + 1];
    total += len;
  }
  for (size_t at = 1; at <= n_atoms; ++at) {
    occ_offsets_[at] += occ_offsets_[at - 1];
  }
  occ_entries_.resize(total);
  for (uint32_t c = 0; c < n_clauses; ++c) {
    if (a.frozen[c]) continue;
    const Lit* lits = a.clause_lits(c);
    const uint32_t len = a.clause_size(c);
    const double sw = SignedCost(c);
    for (uint32_t i = 0; i < len; ++i) {
      const Lit l = lits[i];
      OccEntry e;
      e.clause_and_sign = (c << 1) | (LitPositive(l) ? 1u : 0u);
      e.signed_cost = sw;
      if (len == 1) {
        e.other = kUnit;
      } else if (len == 2 && LitAtom(lits[0]) != LitAtom(lits[1])) {
        const Lit ol = lits[1 - i];
        e.other = (LitAtom(ol) << 1) | (LitPositive(ol) ? 1u : 0u);
      } else {
        e.other = kGeneral;
      }
      occ_entries_[occ_offsets_[LitAtom(l)]++] = e;
    }
  }
  // The fill pass advanced each offset to the next atom's start; shift
  // back so occ_offsets_[at] is again the start of atom at's span.
  for (size_t at = n_atoms; at > 0; --at) {
    occ_offsets_[at] = occ_offsets_[at - 1];
  }
  occ_offsets_[0] = 0;
}

void WalkSatState::Attach(const Problem* problem, double hard_weight) {
  problem_ = problem;
  hard_weight_ = hard_weight;
  cstate_.resize(problem_->num_clauses());
  BuildOccurrences();
  truth_.assign(problem_->num_atoms, 0);
  // No Rebuild here: every assignment setter rebuilds, so doing it now
  // would double the per-attach cost (MC-SAT attaches once per sample
  // and immediately draws a random assignment).
}

void WalkSatState::SetAssignment(const std::vector<uint8_t>& truth) {
  truth_ = truth;
  Rebuild();
}

void WalkSatState::RandomAssignment(Rng* rng) {
  for (size_t i = 0; i < truth_.size(); ++i) {
    truth_[i] = rng->Bernoulli(0.5) ? 1 : 0;
  }
  Rebuild();
}

void WalkSatState::Rebuild() {
  const Problem& a = *problem_;
  const size_t n_clauses = a.num_clauses();
  flip_delta_.assign(a.num_atoms, 0.0);
  violated_.clear();
  violated_pos_.assign(n_clauses, -1);
  cost_ = 0.0;
  for (uint32_t c = 0; c < n_clauses; ++c) {
    if (a.frozen[c]) {
      // Constant clause: a negative-convention tautology is permanently
      // violated, a positive-convention one never is. No flips change it,
      // so it contributes nothing to any cached delta.
      if (!a.positive[c]) {
        violated_pos_[c] = static_cast<int32_t>(violated_.size());
        violated_.push_back(c);
        cost_ += std::fabs(SignedCost(c));
      }
      continue;
    }
    const Lit* lits = a.clause_lits(c);
    const uint32_t len = a.clause_size(c);
    int n = 0;
    uint32_t sum = 0;
    for (uint32_t i = 0; i < len; ++i) {
      AtomId atom = LitAtom(lits[i]);
      if ((truth_[atom] != 0) == LitPositive(lits[i])) {
        ++n;
        sum += atom;
      }
    }
    ClauseState& cs = cstate_[c];
    cs.num_true = n;
    cs.critical_sum = sum;
    // sw = +w for positive-convention clauses, -w for negative ones; all
    // make/break arithmetic below is symmetric under this sign.
    const double sw = SignedCost(c);
    const double w = std::fabs(sw);
    if (n == 0) {
      // Flipping any atom in the clause makes its literal true: a
      // positive clause stops being violated (-w), a negative one starts
      // being violated (+w).
      for (uint32_t i = 0; i < len; ++i) flip_delta_[LitAtom(lits[i])] -= sw;
    } else if (n == 1) {
      // Only the critical atom changes the clause's status.
      flip_delta_[sum] += sw;
    }
    const bool violated = std::signbit(sw) ? (n > 0) : (n == 0);
    if (violated) {
      violated_pos_[c] = static_cast<int32_t>(violated_.size());
      violated_.push_back(c);
      cost_ += w;
    }
  }
}

size_t WalkSatState::EstimateBytes() const {
  return truth_.capacity() * sizeof(uint8_t) +
         occ_offsets_.capacity() * sizeof(uint32_t) +
         occ_entries_.capacity() * sizeof(OccEntry) +
         cstate_.capacity() * sizeof(ClauseState) +
         flip_delta_.capacity() * sizeof(double) +
         violated_.capacity() * sizeof(uint32_t) +
         violated_pos_.capacity() * sizeof(int32_t);
}

void WalkSatState::SetViolated(uint32_t clause, bool violated, double cost) {
  bool currently = violated_pos_[clause] >= 0;
  if (currently == violated) return;
  if (violated) {
    violated_pos_[clause] = static_cast<int32_t>(violated_.size());
    violated_.push_back(clause);
    cost_ += cost;
  } else {
    int32_t pos = violated_pos_[clause];
    uint32_t last = violated_.back();
    violated_[pos] = last;
    violated_pos_[last] = pos;
    violated_.pop_back();
    violated_pos_[clause] = -1;
    cost_ -= cost;
  }
}

void WalkSatState::Flip(AtomId atom) {
  const Problem& a = *problem_;
  const bool was_true = truth_[atom] != 0;
  truth_[atom] = was_true ? 0 : 1;
  const OccEntry* occ = occ_entries_.data();
  const uint32_t end = occ_offsets_[atom + 1];
  for (uint32_t o = occ_offsets_[atom]; o < end; ++o) {
    const OccEntry& e = occ[o];
    const uint32_t c = e.clause_and_sign >> 1;
    const bool lit_was_true = (was_true == ((e.clause_and_sign & 1u) != 0));
    const double sw = e.signed_cost;
    if (e.other < kGeneral) {
      // Unit/binary fast path: the clause's true-literal count is a pure
      // function of the (L1-resident) truth array, so no per-clause state
      // is read or written — the occurrence walk stays sequential.
      const AtomId other_atom = e.other >> 1;
      const bool other_true =
          (truth_[other_atom] != 0) == ((e.other & 1u) != 0);
      if (lit_was_true) {
        if (other_true) {
          // 2 -> 1: the other atom becomes critical.
          flip_delta_[other_atom] += sw;
        } else {
          // 1 -> 0: both flips now toggle the clause; the flipped atom
          // additionally loses its critical bonus.
          flip_delta_[atom] -= 2.0 * sw;
          flip_delta_[other_atom] -= sw;
          SetViolated(c, !std::signbit(sw), std::fabs(sw));
        }
      } else {
        if (other_true) {
          // 1 -> 2: the other atom is no longer critical.
          flip_delta_[other_atom] -= sw;
        } else {
          // 0 -> 1: the clause toggled; the flipped atom became critical.
          flip_delta_[atom] += 2.0 * sw;
          flip_delta_[other_atom] += sw;
          SetViolated(c, std::signbit(sw), std::fabs(sw));
        }
      }
      continue;
    }
    if (e.other == kUnit) {
      // Unit clause: every flip of its atom toggles it.
      if (lit_was_true) {
        flip_delta_[atom] -= 2.0 * sw;
        SetViolated(c, !std::signbit(sw), std::fabs(sw));
      } else {
        flip_delta_[atom] += 2.0 * sw;
        SetViolated(c, std::signbit(sw), std::fabs(sw));
      }
      continue;
    }
    // General path (length >= 3 or degenerate): exact counter updates.
    ClauseState& cs = cstate_[c];
    const int n = cs.num_true;
    if (lit_was_true) {
      cs.critical_sum -= atom;
      cs.num_true = n - 1;
      if (n == 1) {
        // 1 -> 0: every atom's flip now toggles the clause; the flipped
        // atom additionally loses its critical bonus.
        const Lit* lits = a.clause_lits(c);
        const uint32_t len = a.clause_size(c);
        for (uint32_t i = 0; i < len; ++i) flip_delta_[LitAtom(lits[i])] -= sw;
        flip_delta_[atom] -= sw;
        // A positive clause just became violated; a negative one became
        // satisfied.
        SetViolated(c, !std::signbit(sw), std::fabs(sw));
      } else if (n == 2) {
        // 2 -> 1: the surviving true literal's atom becomes critical.
        flip_delta_[cs.critical_sum] += sw;
      }
    } else {
      cs.critical_sum += atom;
      cs.num_true = n + 1;
      if (n == 0) {
        // 0 -> 1: the clause toggled; the flipped atom becomes critical.
        const Lit* lits = a.clause_lits(c);
        const uint32_t len = a.clause_size(c);
        for (uint32_t i = 0; i < len; ++i) flip_delta_[LitAtom(lits[i])] += sw;
        flip_delta_[atom] += sw;
        SetViolated(c, std::signbit(sw), std::fabs(sw));
      } else if (n == 1) {
        // 1 -> 2: the previously-critical atom is no longer critical.
        flip_delta_[cs.critical_sum - atom] -= sw;
      }
    }
  }
}

WalkSat::WalkSat(const Problem* problem, WalkSatOptions options, Rng* rng)
    : problem_(problem),
      options_(options),
      rng_(rng),
      state_(problem, options.hard_weight) {
  if (options_.initial != nullptr) {
    state_.SetAssignment(*options_.initial);
  } else {
    state_.RandomAssignment(rng_);
  }
  best_.Reset(state_.truth(), state_.cost());
}

uint64_t WalkSat::RunFlips(uint64_t n) {
  uint64_t done = 0;
  while (done < n) {
    if (!state_.HasViolated()) break;  // optimal (cost 0)
    AtomId chosen = ChooseWalkSatMove(state_, options_.p_random, rng_);
    state_.Flip(chosen);
    best_.OnFlip(chosen);
    ++done;
    if (state_.cost() < best_.best_cost()) {
      best_.OnImproved(state_.cost());
    } else {
      best_.MaybeRebase(state_.truth());
    }
  }
  flips_ += done;
  return done;
}

WalkSatResult WalkSat::Run() {
  WalkSatResult result;
  const uint64_t trace_every = options_.trace_every_flips;
  // Chunks end at every 1024th flip, where the deadline is checked, and
  // at every trace point.
  uint64_t done = 0;
  while (done < options_.max_flips && state_.HasViolated()) {
    if (done % 1024 == 0 &&
        clock_.ElapsedSeconds() > options_.timeout_seconds) {
      break;
    }
    uint64_t chunk = std::min(options_.max_flips - done, 1024 - done % 1024);
    if (trace_every > 0) {
      chunk = std::min(chunk, trace_every - flips_ % trace_every);
    }
    done += RunFlips(chunk);
    if (trace_every > 0 && flips_ % trace_every == 0) {
      result.trace.push_back(
          TracePoint{clock_.ElapsedSeconds(), flips_, best_.best_cost()});
    }
  }
  result.seconds = clock_.ElapsedSeconds();
  result.best_truth = best_.best_truth();
  result.best_cost = best_.best_cost();
  result.flips = flips_;
  // Measured when the search ends, as ComponentSolver::state_bytes is.
  result.state_bytes = state_bytes() + problem_->EstimateBytes();
  return result;
}

}  // namespace tuffy
