#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "datagen/datasets.h"
#include "infer/brute_force.h"
#include "infer/problem.h"
#include "infer/walksat.h"
#include "util/rng.h"

namespace tuffy {
namespace {

Problem MakeProblem(size_t num_atoms,
                    std::vector<std::pair<std::vector<Lit>, double>> clauses,
                    std::vector<size_t> hard = {}) {
  Problem p;
  p.num_atoms = num_atoms;
  for (size_t c = 0; c < clauses.size(); ++c) {
    const std::vector<Lit>& lits = clauses[c].first;
    const bool is_hard = std::find(hard.begin(), hard.end(), c) != hard.end();
    p.AddClause(lits.data(), lits.size(), clauses[c].second, is_hard);
  }
  return p;
}

// ------------------------------------------------------------ cost model

TEST(ProblemTest, EvalCostPositiveWeight) {
  Problem p = MakeProblem(1, {{{MakeLit(0, true)}, 2.0}});
  EXPECT_DOUBLE_EQ(p.EvalCost({0}, 100.0), 2.0);  // violated
  EXPECT_DOUBLE_EQ(p.EvalCost({1}, 100.0), 0.0);  // satisfied
}

TEST(ProblemTest, EvalCostNegativeWeight) {
  Problem p = MakeProblem(1, {{{MakeLit(0, true)}, -2.0}});
  EXPECT_DOUBLE_EQ(p.EvalCost({1}, 100.0), 2.0);  // true => violated
  EXPECT_DOUBLE_EQ(p.EvalCost({0}, 100.0), 0.0);
}

TEST(ProblemTest, EvalCostHardUsesHardWeight) {
  Problem p = MakeProblem(1, {{{MakeLit(0, true)}, 0.0}}, {0});
  EXPECT_DOUBLE_EQ(p.EvalCost({0}, 1e6), 1e6);
  EXPECT_DOUBLE_EQ(p.EvalCost({1}, 1e6), 0.0);
}

TEST(ProblemTest, SetWeightEqualsRebuild) {
  // Soft positive, soft negative, hard, and a second soft clause.
  const std::vector<std::vector<Lit>> lits = {
      {MakeLit(0, true), MakeLit(1, false)},
      {MakeLit(1, true)},
      {MakeLit(0, false), MakeLit(2, true), MakeLit(3, true)},
      {MakeLit(2, false), MakeLit(3, false)}};
  const std::vector<uint8_t> hard = {0, 0, 1, 0};
  std::vector<double> weights = {1.5, -0.75, 2.0, 0.5};
  auto build = [&]() {
    Problem p;
    p.num_atoms = 4;
    for (size_t c = 0; c < lits.size(); ++c) {
      p.AddClause(lits[c].data(), lits[c].size(), weights[c], hard[c] != 0);
    }
    return p;
  };
  const double hard_weight = 100.0;
  Problem p = build();
  // The learner's pattern: one state, re-attached after each rewrite.
  WalkSatState state(&p, hard_weight);
  auto rewrite_and_compare = [&](uint32_t c, double w, const char* step) {
    SCOPED_TRACE(step);
    weights[c] = w;
    p.SetWeight(c, w);
    state.Attach(&p, hard_weight);
    const Problem fresh = build();
    EXPECT_EQ(p.num_atoms, fresh.num_atoms);
    EXPECT_EQ(p.clause_offsets, fresh.clause_offsets);
    EXPECT_EQ(p.lit_data, fresh.lit_data);
    EXPECT_EQ(p.weight, fresh.weight);
    EXPECT_EQ(p.abs_weight, fresh.abs_weight);
    EXPECT_EQ(p.hard, fresh.hard);
    EXPECT_EQ(p.positive, fresh.positive);
    EXPECT_EQ(p.frozen, fresh.frozen);
    WalkSatState fresh_state(&fresh, hard_weight);
    for (uint32_t bits = 0; bits < 16; ++bits) {
      std::vector<uint8_t> truth(4);
      for (uint32_t a = 0; a < 4; ++a) truth[a] = (bits >> a) & 1;
      state.SetAssignment(truth);
      fresh_state.SetAssignment(truth);
      EXPECT_EQ(state.cost(), fresh_state.cost()) << "world " << bits;
      EXPECT_EQ(state.cost(), fresh.EvalCost(truth, hard_weight));
      for (AtomId a = 0; a < 4; ++a) {
        EXPECT_EQ(state.FlipDelta(a), fresh_state.FlipDelta(a))
            << "world " << bits << " atom " << a;
      }
    }
  };
  rewrite_and_compare(0, -1.5, "soft clause turns negative");
  rewrite_and_compare(0, 1.5, "soft clause turns back");
  rewrite_and_compare(2, 7.0, "hard clause reweighted");
  rewrite_and_compare(3, 3.25, "soft clause rescaled");
}

// -------------------------------------------------------- incremental state

class WalkSatStateParamTest : public ::testing::TestWithParam<int> {};

TEST_P(WalkSatStateParamTest, IncrementalCostMatchesRecompute) {
  // Random problem; after every flip the incremental cost must equal the
  // from-scratch evaluation.
  Rng rng(GetParam());
  const size_t num_atoms = 12;
  Problem p;
  p.num_atoms = num_atoms;
  for (int c = 0; c < 30; ++c) {
    GroundClause sc;
    int len = 1 + static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < len; ++i) {
      AtomId a = static_cast<AtomId>(rng.Uniform(num_atoms));
      Lit l = MakeLit(a, rng.Bernoulli(0.5));
      // Avoid duplicate atoms within a clause for a clean test.
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
  const double hard_weight = 50.0;
  WalkSatState state(&p, hard_weight);
  state.RandomAssignment(&rng);
  EXPECT_NEAR(state.cost(), p.EvalCost(state.truth(), hard_weight), 1e-9);
  for (int step = 0; step < 200; ++step) {
    AtomId a = static_cast<AtomId>(rng.Uniform(num_atoms));
    double predicted = state.cost() + state.FlipDelta(a);
    state.Flip(a);
    EXPECT_NEAR(state.cost(), predicted, 1e-9);
    EXPECT_NEAR(state.cost(), p.EvalCost(state.truth(), hard_weight), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalkSatStateParamTest,
                         ::testing::Range(1, 9));

TEST(WalkSatStateTest, ViolatedSetTracksCount) {
  Problem p = MakeProblem(2, {{{MakeLit(0, true)}, 1.0},
                              {{MakeLit(1, true)}, 1.0}});
  WalkSatState state(&p, 100.0);  // starts all-false
  EXPECT_EQ(state.num_violated(), 2u);
  state.Flip(0);
  EXPECT_EQ(state.num_violated(), 1u);
  state.Flip(1);
  EXPECT_EQ(state.num_violated(), 0u);
  EXPECT_FALSE(state.HasViolated());
}

TEST(WalkSatStateTest, SampleViolatedReturnsViolated) {
  Problem p = MakeProblem(3, {{{MakeLit(0, true)}, 1.0},
                              {{MakeLit(1, true)}, 1.0},
                              {{MakeLit(2, true)}, 1.0}});
  WalkSatState state(&p, 100.0);  // starts all-false
  state.Flip(1);
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    uint32_t ci = state.SampleViolated(&rng);
    EXPECT_NE(ci, 1u);
  }
}

// ----------------------------------------------------------------- WalkSat

TEST(WalkSatTest, SolvesTrivialSat) {
  // (a v b) & (!a v b): b=1 satisfies everything.
  Problem p = MakeProblem(2, {{{MakeLit(0, true), MakeLit(1, true)}, 1.0},
                              {{MakeLit(0, false), MakeLit(1, true)}, 1.0}});
  Rng rng(1);
  WalkSatOptions opts;
  opts.max_flips = 10000;
  WalkSat search(&p, opts, &rng);
  WalkSatResult r = search.Run();
  EXPECT_DOUBLE_EQ(r.best_cost, 0.0);
  EXPECT_EQ(r.best_truth[1], 1);
}

TEST(WalkSatTest, MatchesExactMapOnRandomProblems) {
  for (int seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    Problem p;
    p.num_atoms = 8;
    for (int c = 0; c < 15; ++c) {
      GroundClause sc;
      for (int i = 0; i < 2; ++i) {
        sc.lits.push_back(MakeLit(static_cast<AtomId>(rng.Uniform(8)),
                                  rng.Bernoulli(0.5)));
      }
      if (LitAtom(sc.lits[0]) == LitAtom(sc.lits[1])) sc.lits.pop_back();
      sc.weight = 0.5 + rng.NextDouble();
      p.AddClause(sc.lits.data(), sc.lits.size(), sc.weight, sc.hard);
    }
    auto exact = ExactMap(p, 1e6);
    ASSERT_TRUE(exact.ok());
    WalkSatOptions opts;
    opts.max_flips = 50000;
    Rng srng(seed * 100);
    WalkSat search(&p, opts, &srng);
    WalkSatResult r = search.Run();
    EXPECT_NEAR(r.best_cost, exact.value().cost, 1e-9)
        << "seed " << seed;
  }
}

TEST(WalkSatTest, RespectsHardClauses) {
  // Hard: a must be true. Soft (w=5): a false.
  Problem p = MakeProblem(1, {{{MakeLit(0, true)}, 0.0},
                              {{MakeLit(0, false)}, 5.0}},
                          {0});
  Rng rng(3);
  WalkSatOptions opts;
  opts.max_flips = 10000;
  WalkSat search(&p, opts, &rng);
  WalkSatResult r = search.Run();
  EXPECT_EQ(r.best_truth[0], 1);
  EXPECT_DOUBLE_EQ(r.best_cost, 5.0);
}

TEST(WalkSatTest, NegativeWeightPrefersFalse) {
  Problem p = MakeProblem(1, {{{MakeLit(0, true)}, -2.0}});
  Rng rng(4);
  WalkSatOptions opts;
  opts.max_flips = 1000;
  WalkSat search(&p, opts, &rng);
  WalkSatResult r = search.Run();
  EXPECT_DOUBLE_EQ(r.best_cost, 0.0);
  EXPECT_EQ(r.best_truth[0], 0);
}

TEST(WalkSatTest, Example1OptimumIsAllTrue) {
  std::vector<GroundClause> clauses = MakeExample1Mrf(5);
  Problem p = MakeWholeProblem(10, clauses);
  Rng rng(7);
  WalkSatOptions opts;
  opts.max_flips = 200000;
  WalkSat search(&p, opts, &rng);
  WalkSatResult r = search.Run();
  // Optimal cost: the negative clause in each component is violated.
  EXPECT_DOUBLE_EQ(r.best_cost, 5.0);
  for (uint8_t t : r.best_truth) EXPECT_EQ(t, 1);
}

TEST(WalkSatTest, DeterministicGivenSeed) {
  Problem p = MakeProblem(4, {{{MakeLit(0, true), MakeLit(1, true)}, 1.0},
                              {{MakeLit(2, false), MakeLit(3, true)}, 2.0}});
  WalkSatOptions opts;
  opts.max_flips = 500;
  Rng r1(42), r2(42);
  WalkSatResult a = WalkSat(&p, opts, &r1).Run();
  WalkSatResult b = WalkSat(&p, opts, &r2).Run();
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.best_truth, b.best_truth);
  EXPECT_EQ(a.flips, b.flips);
}

TEST(WalkSatTest, TraceRecordsMonotoneBestCost) {
  std::vector<GroundClause> clauses = MakeExample1Mrf(50);
  Problem p = MakeWholeProblem(100, clauses);
  WalkSatOptions opts;
  opts.max_flips = 20000;
  opts.trace_every_flips = 500;
  Rng rng(11);
  WalkSatResult r = WalkSat(&p, opts, &rng).Run();
  ASSERT_GT(r.trace.size(), 1u);
  for (size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_LE(r.trace[i].cost, r.trace[i - 1].cost);
    EXPECT_GE(r.trace[i].flips, r.trace[i - 1].flips);
  }
}

TEST(WalkSatTest, InitialAssignmentHonored) {
  Problem p = MakeProblem(2, {{{MakeLit(0, true)}, 1.0}});
  std::vector<uint8_t> init = {1, 1};
  WalkSatOptions opts;
  opts.max_flips = 0;
  opts.initial = &init;
  Rng rng(1);
  WalkSatResult r = WalkSat(&p, opts, &rng).Run();
  EXPECT_DOUBLE_EQ(r.best_cost, 0.0);
}

TEST(WalkSatTest, RunMatchesChunkedRunFlips) {
  // Run's chunked driver must perform exactly the flips RunFlips would:
  // a driver that drops or repeats one flip at a deadline-check or trace
  // boundary changes the flip count or the random stream.
  auto random_problem = [](uint64_t seed) {
    Rng rng(seed);
    Problem p;
    p.num_atoms = 24;
    for (int c = 0; c < 70; ++c) {
      std::vector<Lit> lits;
      const int len = 1 + static_cast<int>(rng.Uniform(3));
      for (int i = 0; i < len; ++i) {
        lits.push_back(MakeLit(static_cast<AtomId>(rng.Uniform(24)),
                               rng.Bernoulli(0.5)));
      }
      const double w = rng.Bernoulli(0.3) ? -(0.5 + rng.NextDouble())
                                          : 0.5 + rng.NextDouble();
      p.AddClause(lits.data(), lits.size(), w, rng.Bernoulli(0.1));
    }
    return p;
  };
  const std::vector<GroundClause> example1 = MakeExample1Mrf(30);
  constexpr uint64_t kFlips = 3000;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    for (const Problem& p :
         {MakeWholeProblem(60, example1), random_problem(seed)}) {
      WalkSatOptions opts;
      opts.max_flips = kFlips;
      opts.hard_weight = 20.0;
      opts.trace_every_flips = 7;
      Rng r1(seed), r2(seed);
      WalkSatResult run = WalkSat(&p, opts, &r1).Run();
      WalkSat chunked(&p, opts, &r2);
      for (uint64_t n : {uint64_t{1}, uint64_t{1023}, uint64_t{7}}) {
        chunked.RunFlips(n);
      }
      chunked.RunFlips(kFlips - chunked.flips());
      EXPECT_EQ(run.flips, chunked.flips()) << "seed " << seed;
      EXPECT_EQ(run.best_cost, chunked.best_cost()) << "seed " << seed;
      EXPECT_EQ(run.best_truth, chunked.best_truth()) << "seed " << seed;
      ASSERT_EQ(run.trace.size(), run.flips / 7) << "seed " << seed;
      for (size_t i = 0; i < run.trace.size(); ++i) {
        EXPECT_EQ(run.trace[i].flips, 7 * (i + 1)) << "seed " << seed;
      }
    }
  }
}

TEST(WalkSatTest, RunFlipsResumesAcrossCalls) {
  std::vector<GroundClause> clauses = MakeExample1Mrf(20);
  Problem p = MakeWholeProblem(40, clauses);
  WalkSatOptions opts;
  Rng rng(9);
  WalkSat search(&p, opts, &rng);
  search.RunFlips(100);
  uint64_t first = search.flips();
  double cost_after_first = search.best_cost();
  search.RunFlips(100);
  EXPECT_GE(search.flips(), first);
  EXPECT_LE(search.best_cost(), cost_after_first);
}

TEST(WalkSatTest, RunFlipsStopsAtZeroCost) {
  Problem p = MakeProblem(1, {{{MakeLit(0, true)}, 1.0}});
  const std::vector<uint8_t> all_false = {0};
  WalkSatOptions opts;
  opts.initial = &all_false;
  Rng rng(2);
  WalkSat search(&p, opts, &rng);
  uint64_t done = search.RunFlips(1000);
  EXPECT_LE(done, 2u);
  EXPECT_DOUBLE_EQ(search.best_cost(), 0.0);
}

TEST(WalkSatTest, BestTracksMinimumSeen) {
  std::vector<GroundClause> clauses = MakeExample1Mrf(10);
  Problem p = MakeWholeProblem(20, clauses);
  WalkSatOptions opts;
  Rng rng(13);
  WalkSat search(&p, opts, &rng);
  double prev_best = search.best_cost();
  for (int i = 0; i < 20; ++i) {
    search.RunFlips(50);
    EXPECT_LE(search.best_cost(), prev_best);
    prev_best = search.best_cost();
    EXPECT_NEAR(p.EvalCost(search.best_truth(), opts.hard_weight),
                search.best_cost(), 1e-9);
  }
}

// ---------------------------------------------------------- brute force

TEST(BruteForceTest, RefusesLargeProblems) {
  Problem p;
  p.num_atoms = 40;
  EXPECT_FALSE(ExactMap(p, 1e6).ok());
  EXPECT_FALSE(ExactMarginals(p).ok());
}

TEST(BruteForceTest, ExactMapSimple) {
  // Unit clauses: a true (w=3), a false (w=1) => optimum a=1, cost 1.
  Problem p = MakeProblem(1, {{{MakeLit(0, true)}, 3.0},
                              {{MakeLit(0, false)}, 1.0}});
  auto r = ExactMap(p, 1e6);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().cost, 1.0);
  EXPECT_EQ(r.value().truth[0], 1);
}

TEST(BruteForceTest, ExactMarginalsSingleAtom) {
  // One unit clause w: P(a) = e^0 / (e^0 + e^-w) with cost w when false.
  const double w = 1.0;
  Problem p = MakeProblem(1, {{{MakeLit(0, true)}, w}});
  auto r = ExactMarginals(p);
  ASSERT_TRUE(r.ok());
  double expected = 1.0 / (1.0 + std::exp(-w));
  EXPECT_NEAR(r.value()[0], expected, 1e-12);
}

TEST(BruteForceTest, HardClauseZeroesWorlds) {
  Problem p = MakeProblem(2, {{{MakeLit(0, true)}, 0.0}}, {0});
  auto r = ExactMarginals(p);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value()[0], 1.0);
  EXPECT_NEAR(r.value()[1], 0.5, 1e-12);
}

}  // namespace
}  // namespace tuffy
