#include "infer/mcsat.h"

#include <algorithm>
#include <cmath>

namespace tuffy {

namespace {

/// SampleSAT's flip budget per sample, the probability of a simulated-
/// annealing move instead of a WalkSAT move, the annealing temperature,
/// and the WalkSAT move's random-walk probability.
constexpr uint64_t kSampleSatMaxFlips = 100000;
constexpr double kSampleSatAnneal = 0.5;
constexpr double kSampleSatTemperature = 0.5;
constexpr double kSampleSatRandom = 0.5;
/// WalkSAT flip budget for MC-SAT's initial hard-clause solution.
constexpr uint64_t kHardStartFlips = 100000;

/// SampleSAT moves (WalkSAT + simulated annealing) on a state whose problem
/// holds the slice's constraints as unit-cost positive clauses. Runs until
/// every constraint is satisfied or the flip budget is exhausted. The
/// caller seeds the assignment (MC-SAT requires a random restart).
bool SampleSatMoves(WalkSatState* state, Rng* rng, std::vector<uint8_t>* out) {
  const size_t num_atoms = state->problem().num_atoms;
  for (uint64_t flip = 0; flip < kSampleSatMaxFlips; ++flip) {
    if (!state->HasViolated()) {
      *out = state->truth();
      return true;
    }
    if (rng->NextDouble() < kSampleSatAnneal) {
      // Simulated-annealing move: random atom, Metropolis acceptance.
      AtomId a = static_cast<AtomId>(rng->Uniform(num_atoms));
      double delta = state->FlipDelta(a);
      if (delta <= 0 ||
          rng->NextDouble() < std::exp(-delta / kSampleSatTemperature)) {
        state->Flip(a);
      }
    } else {
      // WalkSAT move on a random violated clause.
      state->Flip(ChooseWalkSatMove(*state, kSampleSatRandom, rng));
    }
  }
  if (!state->HasViolated()) {
    *out = state->truth();
    return true;
  }
  return false;
}

}  // namespace

bool SampleSat(const Problem& problem, Rng* rng, std::vector<uint8_t>* out) {
  // Every clause becomes a unit-cost constraint; weight 1 keeps the
  // annealing deltas well-scaled.
  Problem constraints;
  constraints.num_atoms = problem.num_atoms;
  for (uint32_t c = 0; c < problem.num_clauses(); ++c) {
    constraints.AddClause(problem.clause_lits(c), problem.clause_size(c), 1.0,
                          false);
  }
  WalkSatState state(&constraints, /*hard_weight=*/1.0);
  state.RandomAssignment(rng);
  return SampleSatMoves(&state, rng, out);
}

McSatResult RunMcSat(const Problem& problem, const McSatOptions& options,
                     uint64_t seed) {
  Rng rng(seed);
  McSatResult result;
  result.marginals.assign(problem.num_atoms, 0.0);

  // Initial state: satisfy the hard clauses with plain WalkSAT.
  Problem hard_only;
  hard_only.num_atoms = problem.num_atoms;
  for (uint32_t c = 0; c < problem.num_clauses(); ++c) {
    if (problem.hard[c]) {
      hard_only.AddClause(problem.clause_lits(c), problem.clause_size(c),
                          problem.weight[c], true);
    }
  }
  WalkSatOptions init_opts;
  init_opts.max_flips = kHardStartFlips;
  init_opts.hard_weight = options.hard_weight;
  std::vector<uint8_t> state =
      WalkSat(&hard_only, init_opts, &rng).Run().best_truth;

  // One slice problem and one search state, allocated once and reused
  // for every sample: each round rewrites the slice in place (capacity is
  // retained) and re-attaches the sampler — no per-sample allocation.
  Problem slice;
  slice.num_atoms = problem.num_atoms;
  WalkSatState sampler(&slice, /*hard_weight=*/1.0);
  std::vector<uint8_t> next;

  std::vector<double> true_counts(problem.num_atoms, 0.0);

  // Formula-count accumulators (see McSatOptions::count_index). The
  // slice loop of round r evaluates every clause's truth in the state
  // left by round r-1, so those evaluations double as the count
  // statistics of the sample kept at the end of round r-1; the final
  // round's sample is scanned once after the loop.
  const RuleCountIndex* count_index = options.count_index;
  const size_t num_rules =
      count_index != nullptr ? static_cast<size_t>(count_index->num_rules) : 0;
  std::vector<double> sample_counts(num_rules, 0.0);
  std::vector<double> count_sum(num_rules, 0.0);
  std::vector<double> count_sum_sq(num_rules, 0.0);
  auto fold_sample_counts = [&]() {
    for (size_t r = 0; r < num_rules; ++r) {
      count_sum[r] += sample_counts[r];
      count_sum_sq[r] += sample_counts[r] * sample_counts[r];
      sample_counts[r] = 0.0;
    }
  };

  int kept = 0;
  int total_rounds = options.burn_in + options.num_samples;
  for (int round = 0; round < total_rounds; ++round) {
    const bool collect_counts = count_index != nullptr &&
                                round > options.burn_in;
    // Build the slice M as unit-cost constraints in the reused problem.
    slice.Clear();
    for (uint32_t ci = 0; ci < problem.num_clauses(); ++ci) {
      const bool is_true = problem.Satisfied(ci, state);
      if (collect_counts && is_true) {
        count_index->AccumulateClause(ci, &sample_counts);
      }
      const Lit* lits = problem.clause_lits(ci);
      const uint32_t len = problem.clause_size(ci);
      const double w = problem.weight[ci];
      if (problem.hard[ci]) {
        slice.AddClause(lits, len, 1.0, false);
        continue;
      }
      if (w > 0 && is_true) {
        if (rng.NextDouble() < 1.0 - std::exp(-w)) {
          slice.AddClause(lits, len, 1.0, false);
        }
      } else if (w < 0 && !is_true) {
        // A false negative-weight clause is currently *satisfying* the
        // model (not violated); keep it false via unit constraints on
        // the negations of its literals.
        if (rng.NextDouble() < 1.0 - std::exp(w)) {
          for (uint32_t i = 0; i < len; ++i) {
            Lit unit = -lits[i];
            slice.AddClause(&unit, 1, 1.0, false);
          }
        }
      }
    }
    if (collect_counts) fold_sample_counts();
    sampler.Attach(&slice, /*hard_weight=*/1.0);
    sampler.RandomAssignment(&rng);
    if (SampleSatMoves(&sampler, &rng, &next)) {
      state.swap(next);
    }
    // else: keep the previous state (rejected move). The retained state
    // *is* the round's sample — both the marginals below and the count
    // statistics (which see it in the next round's slice scan, or the
    // final pass) count it again, so `kept` always equals num_samples
    // and the two estimators average over the same sample multiset.
    if (round >= options.burn_in) {
      for (size_t a = 0; a < problem.num_atoms; ++a) {
        true_counts[a] += state[a] != 0 ? 1.0 : 0.0;
      }
      ++kept;
    }
  }
  if (count_index != nullptr && kept > 0) {
    // The slice loops covered all kept samples but the last; scan it.
    for (uint32_t ci = 0; ci < problem.num_clauses(); ++ci) {
      if (problem.Satisfied(ci, state)) {
        count_index->AccumulateClause(ci, &sample_counts);
      }
    }
    fold_sample_counts();
    result.formula_count_mean.resize(num_rules);
    result.formula_count_var.resize(num_rules);
    for (size_t r = 0; r < num_rules; ++r) {
      const double mean = count_sum[r] / kept;
      result.formula_count_mean[r] = mean;
      result.formula_count_var[r] =
          std::max(0.0, count_sum_sq[r] / kept - mean * mean);
    }
  }
  if (kept > 0) {
    for (size_t a = 0; a < problem.num_atoms; ++a) {
      result.marginals[a] = true_counts[a] / kept;
    }
  }
  result.samples_used = kept;
  return result;
}

}  // namespace tuffy
