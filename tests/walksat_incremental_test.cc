// Randomized equivalence tests for the incremental search kernel: after
// any sequence of flips, the cached per-atom flip deltas and the
// incrementally maintained cost must exactly match a from-scratch
// evaluation. Exercises every clause shape the kernel special-cases
// (unit, binary, length >= 3, degenerate duplicate-atom binary) across
// positive-, negative-, and hard-weight clauses.

#include <gtest/gtest.h>

#include <cmath>

#include "infer/problem.h"
#include "infer/walksat.h"
#include "util/rng.h"

namespace tuffy {
namespace {

constexpr double kHardWeight = 50.0;

/// Random problem mixing clause lengths 1..4 with positive, negative, and
/// hard weights.
Problem RandomProblem(uint64_t seed, size_t num_atoms, int num_clauses) {
  Rng rng(seed);
  Problem p;
  p.num_atoms = num_atoms;
  for (int c = 0; c < num_clauses; ++c) {
    GroundClause sc;
    int len = 1 + static_cast<int>(rng.Uniform(4));
    for (int i = 0; i < len; ++i) {
      AtomId a = static_cast<AtomId>(rng.Uniform(num_atoms));
      Lit l = MakeLit(a, rng.Bernoulli(0.5));
      bool dup = false;
      for (Lit e : sc.lits) dup |= (LitAtom(e) == a);
      if (!dup) sc.lits.push_back(l);
    }
    if (sc.lits.empty()) continue;
    sc.weight = rng.Bernoulli(0.3) ? -(1.0 + rng.NextDouble())
                                   : (1.0 + rng.NextDouble());
    if (rng.Bernoulli(0.1)) {
      sc.hard = true;
      sc.weight = 0;
    }
    p.AddClause(sc.lits.data(), sc.lits.size(), sc.weight, sc.hard);
  }
  return p;
}

/// Brute-force flip delta straight from the cost definition.
double BruteFlipDelta(const Problem& p, std::vector<uint8_t> truth,
                      AtomId atom) {
  double before = p.EvalCost(truth, kHardWeight);
  truth[atom] ^= 1;
  return p.EvalCost(truth, kHardWeight) - before;
}

void ExpectStateMatchesScratch(const Problem& p, const WalkSatState& state) {
  // Incremental cost == from-scratch cost.
  EXPECT_NEAR(state.cost(), p.EvalCost(state.truth(), kHardWeight), 1e-8);
  // Cached deltas == a freshly rebuilt state's deltas == brute force.
  WalkSatState fresh(&p, kHardWeight);
  fresh.SetAssignment(state.truth());
  EXPECT_NEAR(fresh.cost(), state.cost(), 1e-8);
  for (AtomId a = 0; a < p.num_atoms; ++a) {
    EXPECT_NEAR(state.FlipDelta(a), fresh.FlipDelta(a), 1e-8)
        << "cached delta drifted from rebuild, atom " << a;
    EXPECT_NEAR(state.FlipDelta(a), BruteFlipDelta(p, state.truth(), a), 1e-8)
        << "cached delta wrong, atom " << a;
  }
}

class IncrementalEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalEquivalenceTest, CachedDeltasMatchRebuildAfterFlips) {
  const size_t num_atoms = 14;
  Problem p = RandomProblem(GetParam(), num_atoms, 40);
  Rng rng(GetParam() * 31 + 1);
  WalkSatState state(&p, kHardWeight);
  state.RandomAssignment(&rng);
  ExpectStateMatchesScratch(p, state);
  for (int step = 0; step < 120; ++step) {
    AtomId a = static_cast<AtomId>(rng.Uniform(num_atoms));
    double predicted = state.cost() + state.FlipDelta(a);
    state.Flip(a);
    ASSERT_NEAR(state.cost(), predicted, 1e-8) << "step " << step;
    if (step % 30 == 0) ExpectStateMatchesScratch(p, state);
  }
  ExpectStateMatchesScratch(p, state);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalenceTest,
                         ::testing::Range(1, 11));

TEST(IncrementalEquivalenceTest, DegenerateDuplicateAtomBinaryClause) {
  // {+a, -a} is a tautology for the positive convention and permanently
  // violated for the negative one; the arena freezes such clauses so the
  // cost stays exact and their atoms' cached deltas stay zero.
  Problem p;
  p.num_atoms = 2;
  const Lit taut[] = {MakeLit(0, true), MakeLit(0, false)};
  p.AddClause(taut, 2, 2.0, false);
  p.AddClause(taut, 2, -3.0, false);
  const Lit unit = MakeLit(1, true);
  p.AddClause(&unit, 1, 1.5, false);

  WalkSatState state(&p, kHardWeight);  // starts all-false
  ExpectStateMatchesScratch(p, state);
  for (AtomId a : {0u, 1u, 0u, 0u, 1u}) {
    state.Flip(a);
    ExpectStateMatchesScratch(p, state);
  }
}

TEST(IncrementalEquivalenceTest, AttachReusesStateAcrossArenas) {
  // The MC-SAT pattern: one state re-attached to a sequence of slice
  // arenas must behave exactly like a fresh state on each.
  Problem p1 = RandomProblem(101, 10, 25);
  Problem p2 = RandomProblem(202, 10, 3);  // much smaller second arena
  Rng rng(7);
  WalkSatState state(&p1, kHardWeight);
  state.RandomAssignment(&rng);
  for (int i = 0; i < 50; ++i) {
    state.Flip(static_cast<AtomId>(rng.Uniform(p1.num_atoms)));
  }
  ExpectStateMatchesScratch(p1, state);

  state.Attach(&p2, kHardWeight);
  state.RandomAssignment(&rng);
  for (int i = 0; i < 50; ++i) {
    state.Flip(static_cast<AtomId>(rng.Uniform(p2.num_atoms)));
  }
  ExpectStateMatchesScratch(p2, state);
}

TEST(IncrementalEquivalenceTest, HardClausesUseHardWeightInDeltas) {
  // Hard clause over 3 atoms, all false: flipping any atom must report
  // a delta of exactly -hard_weight.
  Problem p;
  p.num_atoms = 3;
  const Lit hc[] = {MakeLit(0, true), MakeLit(1, true), MakeLit(2, true)};
  p.AddClause(hc, 3, 0.0, true);
  WalkSatState state(&p, kHardWeight);  // starts all-false
  EXPECT_DOUBLE_EQ(state.cost(), kHardWeight);
  for (AtomId a = 0; a < 3; ++a) {
    EXPECT_DOUBLE_EQ(state.FlipDelta(a), -kHardWeight);
  }
  state.Flip(0);
  EXPECT_DOUBLE_EQ(state.cost(), 0.0);
  EXPECT_DOUBLE_EQ(state.FlipDelta(0), kHardWeight);  // critical atom
  EXPECT_DOUBLE_EQ(state.FlipDelta(1), 0.0);
  EXPECT_DOUBLE_EQ(state.FlipDelta(2), 0.0);
}

TEST(IncrementalEquivalenceTest, WalkSatDeterministicAcrossRuns) {
  // The full driver must stay deterministic given a seed on a mixed
  // problem (guards the best-truth tracker and move selection).
  Problem p = RandomProblem(55, 20, 60);
  WalkSatOptions opts;
  opts.max_flips = 5000;
  Rng r1(99), r2(99);
  WalkSatResult a = WalkSat(&p, opts, &r1).Run();
  WalkSatResult b = WalkSat(&p, opts, &r2).Run();
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.best_truth, b.best_truth);
  EXPECT_EQ(a.flips, b.flips);
  EXPECT_NEAR(p.EvalCost(a.best_truth, opts.hard_weight), a.best_cost, 1e-8);
}

}  // namespace
}  // namespace tuffy
