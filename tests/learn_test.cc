// Weight-learning subsystem tests: rule count index provenance, MC-SAT
// expected counts against brute-force enumeration (the gradient check),
// option validation, and generative-weight recovery for both learners.

#include <gtest/gtest.h>

#include <cmath>

#include "exec/tuffy_engine.h"
#include "ground/rule_count_index.h"
#include "infer/brute_force.h"
#include "infer/mcsat.h"
#include "infer/problem.h"
#include "infer/walksat.h"
#include "learn/counts.h"
#include "learn/learner.h"
#include "mln/parser.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace tuffy {
namespace {

// --------------------------------------------------------- count index

TEST(RuleCountIndexTest, MergedDuplicatesKeepPerRuleMultiplicity) {
  GroundClauseStore store;
  GroundClause a;
  a.lits = {MakeLit(0, true), MakeLit(1, false)};
  a.weight = 1.0;
  a.rule_id = 0;
  store.Add(a);
  GroundClause b = a;  // same literal set, different source rule
  b.rule_id = 1;
  store.Add(b);
  store.Add(a);  // rule 0 grounds this literal set twice
  GroundClause c;
  c.lits = {MakeLit(2, true)};
  c.weight = -0.5;
  c.rule_id = 1;
  store.Add(c);

  ASSERT_EQ(store.num_clauses(), 2u);
  EXPECT_DOUBLE_EQ(store.clauses()[0].weight, 3.0);

  RuleCountIndex index = BuildRuleCountIndex(store, 2);
  ASSERT_EQ(index.num_clauses(), 2u);
  std::vector<int64_t> counts(2, 0);
  index.AccumulateClause(0, &counts);
  EXPECT_EQ(counts[0], 2);  // two groundings of rule 0
  EXPECT_EQ(counts[1], 1);
  index.AccumulateClause(1, &counts);
  EXPECT_EQ(counts[1], 2);
}

TEST(GroundClauseStoreTest, DeriveWeightSumsContributions) {
  GroundClauseStore store;
  GroundClause a;
  a.lits = {MakeLit(0, true)};
  a.weight = 1.0;
  a.rule_id = 0;
  store.Add(a);
  a.rule_id = 1;
  store.Add(a);  // merged: rule 0 + rule 1

  double weight = 0.0;
  bool hard = true;
  ASSERT_TRUE(store.DeriveWeight(0, {2.0, -0.5}, {0, 0}, &weight, &hard));
  EXPECT_DOUBLE_EQ(weight, 1.5);
  EXPECT_FALSE(hard);
  // A hard rule adds no weight and makes the clause hard.
  ASSERT_TRUE(store.DeriveWeight(0, {2.0, -0.5}, {0, 1}, &weight, &hard));
  EXPECT_DOUBLE_EQ(weight, 2.0);
  EXPECT_TRUE(hard);
}

// ------------------------------------------------ random MRFs

/// Random MRF with provenance: rule ids cycle over `num_rules`.
GroundClauseStore RandomStore(size_t num_atoms, int num_clauses,
                              int num_rules, uint64_t seed) {
  Rng rng(seed);
  GroundClauseStore store;
  for (int i = 0; i < num_clauses; ++i) {
    GroundClause c;
    int len = 1 + static_cast<int>(rng.Uniform(3));
    for (int l = 0; l < len; ++l) {
      AtomId a = static_cast<AtomId>(rng.Uniform(num_atoms));
      bool dup = false;
      for (Lit existing : c.lits) dup |= (LitAtom(existing) == a);
      if (!dup) c.lits.push_back(MakeLit(a, rng.Bernoulli(0.5)));
    }
    c.weight = rng.Bernoulli(0.25) ? -(0.3 + rng.NextDouble())
                                   : (0.3 + rng.NextDouble());
    c.hard = rng.Bernoulli(0.1);
    c.rule_id = i % num_rules;
    store.Add(std::move(c));
  }
  return store;
}

// ------------------------------------------------- MC-SAT gradient check

TEST(FormulaStatsTest, McSatExpectedCountsMatchBruteForce) {
  // <= 12-atom model so exhaustive enumeration is exact. Positive and
  // negative soft weights, merged duplicates, multiple rules.
  GroundClauseStore store = RandomStore(10, 24, 4, /*seed=*/42);
  // Strip hard clauses: SampleSAT mixing on near-deterministic models
  // is a sampler-quality concern, not a counting-correctness one.
  for (GroundClause& c : store.mutable_clauses()) c.hard = false;
  RuleCountIndex index = BuildRuleCountIndex(store, 4);
  Problem problem = MakeWholeProblem(10, store.clauses());

  auto exact = ExactFormulaExpectations(problem, index, 12);
  ASSERT_TRUE(exact.ok());

  McSatOptions opts;
  opts.num_samples = 4000;
  opts.burn_in = 100;
  opts.count_index = &index;
  McSatResult r = RunMcSat(problem, opts, /*seed=*/97);
  ASSERT_EQ(r.formula_count_mean.size(), 4u);

  // Per-rule tolerance scales with how many groundings the rule has
  // (each clause truth estimate carries the sampler's ~0.12 envelope,
  // but errors partially cancel across groundings).
  std::vector<double> groundings(4, 0.0);
  for (size_t c = 0; c < index.num_clauses(); ++c) {
    index.AccumulateClause(static_cast<uint32_t>(c), &groundings);
  }
  for (int rule = 0; rule < 4; ++rule) {
    const double tol = std::max(0.15, 0.08 * groundings[rule]);
    EXPECT_NEAR(r.formula_count_mean[rule], exact.value().mean[rule], tol)
        << "rule " << rule;
    EXPECT_GE(r.formula_count_var[rule], 0.0);
    // Variances are noisier; check them within a generous envelope.
    EXPECT_NEAR(r.formula_count_var[rule], exact.value().var[rule],
                std::max(0.5, 0.5 * exact.value().var[rule]))
        << "rule " << rule;
  }
}

// --------------------------------------------------------- validation

TEST(LearnOptionsTest, ValidationRejectsBadKnobs) {
  LearnOptions good;
  good.query_predicates = {"p"};
  EXPECT_TRUE(ValidateLearnOptions(good).ok());

  LearnOptions o = good;
  o.learning_rate = 0.0;
  EXPECT_FALSE(ValidateLearnOptions(o).ok());

  o = good;
  o.mcsat_samples = -5;
  EXPECT_FALSE(ValidateLearnOptions(o).ok());

  o = good;
  o.mcsat_burn_in = o.mcsat_samples;  // discards most of the budget
  EXPECT_FALSE(ValidateLearnOptions(o).ok());

  o = good;
  o.max_epochs = 0;
  EXPECT_FALSE(ValidateLearnOptions(o).ok());

  o = good;
  o.l2_prior_variance = -1.0;
  EXPECT_FALSE(ValidateLearnOptions(o).ok());

  o = good;
  o.p_random = 1.5;
  EXPECT_FALSE(ValidateLearnOptions(o).ok());
}

TEST(EngineOptionsTest, ValidationRejectsBadKnobs) {
  EngineOptions good;
  EXPECT_TRUE(ValidateEngineOptions(good).ok());

  EngineOptions o = good;
  o.mcsat_samples = 0;
  EXPECT_FALSE(ValidateEngineOptions(o).ok());

  o = good;
  o.mcsat_burn_in = -1;
  EXPECT_FALSE(ValidateEngineOptions(o).ok());

  o = good;
  o.p_random = -0.1;
  EXPECT_FALSE(ValidateEngineOptions(o).ok());

  o = good;
  o.hard_weight = 0.0;
  EXPECT_FALSE(ValidateEngineOptions(o).ok());

  o = good;
  o.num_threads = 0;
  EXPECT_FALSE(ValidateEngineOptions(o).ok());
}

TEST(EngineOptionsTest, RunRejectsInvalidOptions) {
  auto program = ParseProgram("p(thing)\n1 p(x)\n");
  ASSERT_TRUE(program.ok());
  MlnProgram prog = program.TakeValue();
  prog.symbols().Intern("T0", "thing");
  EvidenceDb evidence;
  EngineOptions opts;
  opts.mcsat_samples = -3;
  TuffyEngine engine(prog, evidence, opts);
  EXPECT_FALSE(engine.Run().ok());
}

// ------------------------------------------------------ training split

TEST(TrainingSplitTest, SplitsByPredicateAndValidates) {
  auto program = ParseProgram(
      "*feat(thing)\n"
      "label(thing)\n"
      "1 feat(x) => label(x)\n");
  ASSERT_TRUE(program.ok());
  MlnProgram prog = program.TakeValue();
  ConstantId t0 = prog.symbols().Intern("T0", "thing");

  EvidenceDb full;
  full.Add(GroundAtom{0, {t0}}, true);  // feat
  full.Add(GroundAtom{1, {t0}}, true);  // label

  auto split = SplitEvidenceForLearning(prog, full, {"label"});
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split.value().evidence.num_evidence(), 1u);
  EXPECT_EQ(split.value().labels.num_evidence(), 1u);

  // Unknown predicate and closed-world query predicate are rejected.
  EXPECT_FALSE(SplitEvidenceForLearning(prog, full, {"nope"}).ok());
  EXPECT_FALSE(SplitEvidenceForLearning(prog, full, {"feat"}).ok());
  EXPECT_FALSE(
      SplitEvidenceForLearning(prog, full, std::vector<std::string>{}).ok());
}

// ------------------------------------------------------ weight recovery

/// Two unit rules over a shared domain with known generating weights:
/// w_p = +2 (most p atoms true in the data), w_q = -1.5 (few q atoms
/// true). Learned weights must recover sign and ordering.
struct RecoverySetup {
  MlnProgram program;
  EvidenceDb evidence;
};

RecoverySetup MakeRecoverySetup(int domain_size) {
  auto program = ParseProgram(
      "p(thing)\n"
      "q(thing)\n"
      "0 p(x)\n"
      "0 q(x)\n");
  EXPECT_TRUE(program.ok());
  RecoverySetup setup;
  setup.program = program.TakeValue();
  // Labels drawn from the generating marginals sigmoid(+2) ~ 0.88 and
  // sigmoid(-1.5) ~ 0.18 (unit-clause atoms are independent).
  const int p_true = static_cast<int>(domain_size * 0.88);
  const int q_true = static_cast<int>(domain_size * 0.18);
  for (int i = 0; i < domain_size; ++i) {
    ConstantId c =
        setup.program.symbols().Intern(StrFormat("T%d", i), "thing");
    if (i < p_true) setup.evidence.Add(GroundAtom{0, {c}}, true);
    if (i < q_true) setup.evidence.Add(GroundAtom{1, {c}}, true);
  }
  return setup;
}

TEST(WeightRecoveryTest, VotedPerceptronRecoversSignAndOrdering) {
  RecoverySetup setup = MakeRecoverySetup(40);
  TuffyEngine engine(setup.program, setup.evidence, EngineOptions{});
  LearnOptions lopts;
  lopts.algorithm = LearnAlgorithm::kVotedPerceptron;
  lopts.query_predicates = {"p", "q"};
  lopts.max_epochs = 80;
  lopts.learning_rate = 0.3;
  lopts.map_flips = 20000;
  lopts.seed = 7;
  auto result = engine.Learn(lopts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const LearnResult& lr = result.value();
  EXPECT_EQ(lr.num_atoms, 80u);
  EXPECT_EQ(lr.data_counts[0], 35);  // 40 * 0.88
  EXPECT_EQ(lr.data_counts[1], 7);   // 40 * 0.18
  EXPECT_GT(lr.weights[0], 0.0);
  EXPECT_LT(lr.weights[1], 0.0);
  EXPECT_GT(lr.weights[0], lr.weights[1]);
  EXPECT_TRUE(lr.converged) << "epochs=" << lr.epochs;
}

TEST(WeightRecoveryTest, DiagonalNewtonRecoversSignAndOrdering) {
  RecoverySetup setup = MakeRecoverySetup(40);
  TuffyEngine engine(setup.program, setup.evidence, EngineOptions{});
  LearnOptions lopts;
  lopts.algorithm = LearnAlgorithm::kDiagonalNewton;
  lopts.query_predicates = {"p", "q"};
  lopts.max_epochs = 60;
  lopts.learning_rate = 0.8;
  lopts.mcsat_samples = 120;
  lopts.mcsat_burn_in = 12;
  lopts.seed = 11;
  auto result = engine.Learn(lopts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const LearnResult& lr = result.value();
  EXPECT_GT(lr.weights[0], 0.0);
  EXPECT_LT(lr.weights[1], 0.0);
  EXPECT_GT(lr.weights[0], lr.weights[1]);
  EXPECT_TRUE(lr.converged) << "epochs=" << lr.epochs;
  // The smooth MC-SAT expectations should land near the generating
  // weights themselves, not just the right signs.
  EXPECT_NEAR(lr.weights[0], 2.0, 0.8);
  EXPECT_NEAR(lr.weights[1], -1.5, 0.8);
}

// --------------------------------------------------- footprint estimates

TEST(EstimateBytesTest, ArenaAndStateEstimatesArePositiveAndOrdered) {
  GroundClauseStore store = RandomStore(30, 80, 5, /*seed=*/3);
  Problem problem = MakeWholeProblem(30, store.clauses());
  const size_t arena_bytes = problem.EstimateBytes();
  EXPECT_GT(arena_bytes, problem.lit_data.size() * sizeof(Lit));

  WalkSatState state(&problem, 10.0);
  // The state's occurrence entries alone (16B per literal occurrence)
  // outweigh the arena's 4B literal array.
  EXPECT_GT(state.EstimateBytes(), arena_bytes / 2);

  WalkSatOptions wopts;
  wopts.max_flips = 100;
  Rng rng(5);
  WalkSatResult wr = WalkSat(&problem, wopts, &rng).Run();
  EXPECT_GE(wr.state_bytes, arena_bytes);
}

}  // namespace
}  // namespace tuffy
