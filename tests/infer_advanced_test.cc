#include <gtest/gtest.h>

#include <cmath>

#include "datagen/datasets.h"
#include "infer/brute_force.h"
#include "infer/component_walksat.h"
#include "infer/disk_walksat.h"
#include "infer/gauss_seidel.h"
#include "infer/mcsat.h"
#include "mrf/components.h"
#include "mrf/partitioner.h"

namespace tuffy {
namespace {

// ---------------------------------------------------- component search

TEST(ComponentWalkSatTest, SolvesExample1Exactly) {
  const int n = 50;
  std::vector<GroundClause> clauses = MakeExample1Mrf(n);
  ComponentSet cs = DetectComponents(2 * n, clauses);
  ComponentSearchOptions opts;
  opts.total_flips = 20000;
  opts.rounds = 4;
  ComponentSearchResult r =
      RunComponentWalkSat(2 * n, clauses, cs, opts, /*seed=*/1);
  EXPECT_DOUBLE_EQ(r.cost, static_cast<double>(n));
  for (uint8_t t : r.truth) EXPECT_EQ(t, 1);
}

TEST(ComponentWalkSatTest, MergedCostMatchesGlobalEvaluation) {
  const int n = 30;
  std::vector<GroundClause> clauses = MakeExample1Mrf(n);
  ComponentSet cs = DetectComponents(2 * n, clauses);
  ComponentSearchOptions opts;
  opts.total_flips = 5000;
  ComponentSearchResult r =
      RunComponentWalkSat(2 * n, clauses, cs, opts, /*seed=*/3);
  Problem whole = MakeWholeProblem(2 * n, clauses);
  EXPECT_NEAR(whole.EvalCost(r.truth, opts.hard_weight), r.cost, 1e-9);
}

TEST(ComponentWalkSatTest, ParallelMatchesQuality) {
  const int n = 40;
  std::vector<GroundClause> clauses = MakeExample1Mrf(n);
  ComponentSet cs = DetectComponents(2 * n, clauses);
  ComponentSearchOptions opts;
  opts.total_flips = 20000;
  opts.num_threads = 8;
  ComponentSearchResult r =
      RunComponentWalkSat(2 * n, clauses, cs, opts, /*seed=*/5);
  EXPECT_DOUBLE_EQ(r.cost, static_cast<double>(n));
}

TEST(ComponentWalkSatTest, TraceIsMonotone) {
  const int n = 60;
  std::vector<GroundClause> clauses = MakeExample1Mrf(n);
  ComponentSet cs = DetectComponents(2 * n, clauses);
  ComponentSearchOptions opts;
  opts.total_flips = 30000;
  opts.rounds = 10;
  ComponentSearchResult r =
      RunComponentWalkSat(2 * n, clauses, cs, opts, /*seed=*/7);
  ASSERT_GE(r.trace.size(), 2u);
  for (size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_LE(r.trace[i].cost, r.trace[i - 1].cost);
  }
}

// The headline claim of Theorem 3.1, in miniature: with the same flip
// budget, component-aware search reaches the optimum while whole-MRF
// WalkSAT (tracking only the global best) stays strictly worse.
TEST(ComponentWalkSatTest, BeatsWholeMrfWalkSatOnExample1) {
  const int n = 400;
  std::vector<GroundClause> clauses = MakeExample1Mrf(n);
  const uint64_t budget = 40 * n;

  ComponentSet cs = DetectComponents(2 * n, clauses);
  ComponentSearchOptions copts;
  copts.total_flips = budget;
  copts.rounds = 1;
  copts.use_exact = false;  // the claim is about WalkSAT, not the exact solver
  ComponentSearchResult comp =
      RunComponentWalkSat(2 * n, clauses, cs, copts, /*seed=*/11);

  Problem whole = MakeWholeProblem(2 * n, clauses);
  WalkSatOptions wopts;
  wopts.max_flips = budget;
  Rng rng(11);
  WalkSatResult plain = WalkSat(&whole, wopts, &rng).Run();

  EXPECT_DOUBLE_EQ(comp.cost, static_cast<double>(n));
  EXPECT_GT(plain.best_cost, comp.cost);
}

// ------------------------------------------------------- Gauss-Seidel

TEST(GaussSeidelTest, ConditionedSubProblemResolvesExternalLiterals) {
  // Clause (a0 v a1) cut across partitions {a0}, {a1}.
  std::vector<GroundClause> clauses;
  GroundClause c;
  c.lits = {MakeLit(0, true), MakeLit(1, true)};
  c.weight = 1.0;
  clauses.push_back(c);
  std::vector<int32_t> part = {0, 1};
  std::vector<uint32_t> position = {0, 0};
  std::vector<uint32_t> cut = {0};

  // External atom a1 false: the cut clause reduces to unit (a0).
  std::vector<uint8_t> global = {0, 0};
  SubProblem sub = BuildConditionedSubProblem(clauses, {}, cut, {0}, part,
                                              position, 0, global);
  ASSERT_EQ(sub.problem.num_clauses(), 1u);
  EXPECT_EQ(sub.problem.clause_size(0), 1u);

  // External atom a1 true: the clause is satisfied and dropped.
  global[1] = 1;
  SubProblem sub2 = BuildConditionedSubProblem(clauses, {}, cut, {0}, part,
                                               position, 0, global);
  EXPECT_EQ(sub2.problem.num_clauses(), 0u);
}

TEST(GaussSeidelTest, ReachesOptimumOnChain) {
  // Example 2 flavor: two 3-atom blobs joined by one cut edge. Soft unit
  // clauses prefer everything true; the cut clause agrees.
  std::vector<GroundClause> clauses;
  for (AtomId a = 0; a < 6; ++a) {
    GroundClause c;
    c.lits = {MakeLit(a, true)};
    c.weight = 1.0;
    clauses.push_back(c);
  }
  for (AtomId a : {0u, 1u, 3u, 4u}) {
    GroundClause c;
    c.lits = {MakeLit(a, false), MakeLit(a + 1, true)};
    c.weight = 0.5;
    clauses.push_back(c);
  }
  GroundClause bridge;
  bridge.lits = {MakeLit(2, false), MakeLit(3, true)};
  bridge.weight = 0.5;
  clauses.push_back(bridge);

  PartitionResult pr = PartitionMrf(6, clauses, 12);
  GaussSeidelOptions opts;
  opts.sweeps = 5;
  opts.flips_per_partition = 5000;
  GaussSeidelResult r = RunGaussSeidel(6, clauses, pr, opts, /*seed=*/1);
  EXPECT_DOUBLE_EQ(r.cost, 0.0);
  for (uint8_t t : r.truth) EXPECT_EQ(t, 1);
}

TEST(GaussSeidelTest, MatchesExactMapOnSmallRandomMrf) {
  Rng gen(21);
  std::vector<GroundClause> clauses;
  const size_t num_atoms = 10;
  for (int i = 0; i < 18; ++i) {
    GroundClause c;
    AtomId a = static_cast<AtomId>(gen.Uniform(num_atoms));
    AtomId b = static_cast<AtomId>(gen.Uniform(num_atoms));
    c.lits.push_back(MakeLit(a, gen.Bernoulli(0.5)));
    if (b != a) c.lits.push_back(MakeLit(b, gen.Bernoulli(0.5)));
    c.weight = 0.5 + gen.NextDouble();
    clauses.push_back(std::move(c));
  }
  Problem whole = MakeWholeProblem(num_atoms, clauses);
  auto exact = ExactMap(whole, 1e6);
  ASSERT_TRUE(exact.ok());

  PartitionResult pr = PartitionMrf(num_atoms, clauses, 20);
  GaussSeidelOptions opts;
  opts.sweeps = 8;
  opts.flips_per_partition = 20000;
  GaussSeidelResult r =
      RunGaussSeidel(num_atoms, clauses, pr, opts, /*seed=*/2);
  // Gauss-Seidel is coordinate descent across partitions: it cannot do
  // better than the optimum and may end in a local optimum whose gap is
  // bounded by the cut weight it cannot reason about jointly.
  EXPECT_GE(r.cost, exact.value().cost - 1e-9);
  EXPECT_LE(r.cost, exact.value().cost + pr.CutWeight(clauses) + 1e-9);
}

TEST(GaussSeidelTest, TraceMonotoneAndCostConsistent) {
  std::vector<GroundClause> clauses = MakeExample1Mrf(20);
  PartitionResult pr = PartitionMrf(40, clauses, 8);
  GaussSeidelOptions opts;
  opts.sweeps = 6;
  opts.flips_per_partition = 1000;
  GaussSeidelResult r = RunGaussSeidel(40, clauses, pr, opts, /*seed=*/3);
  ASSERT_GE(r.trace.size(), 2u);
  for (size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_LE(r.trace[i].cost, r.trace[i - 1].cost);
  }
  Problem whole = MakeWholeProblem(40, clauses);
  EXPECT_NEAR(whole.EvalCost(r.truth, opts.hard_weight), r.cost, 1e-9);
}

// --------------------------------------------------------- disk search

TEST(DiskWalkSatTest, SolvesTinyProblem) {
  Problem p;
  p.num_atoms = 2;
  const Lit a = MakeLit(0, true);
  const Lit b = MakeLit(1, true);
  p.AddClause(&a, 1, 1.0, false);
  p.AddClause(&b, 1, 1.0, false);
  DiskWalkSatOptions opts;
  opts.max_flips = 100;
  opts.io_latency_us = 0;
  auto ws = DiskWalkSat::Create(p, opts);
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  Rng rng(1);
  WalkSatResult r = ws.value()->Run(&rng);
  EXPECT_DOUBLE_EQ(r.best_cost, 0.0);
}

TEST(DiskWalkSatTest, MatchesInMemoryQualityOnSmallMrf) {
  std::vector<GroundClause> clauses = MakeExample1Mrf(5);
  Problem p = MakeWholeProblem(10, clauses);
  DiskWalkSatOptions opts;
  opts.max_flips = 3000;
  opts.io_latency_us = 0;
  auto ws = DiskWalkSat::Create(p, opts);
  ASSERT_TRUE(ws.ok());
  Rng rng(2);
  WalkSatResult r = ws.value()->Run(&rng);
  EXPECT_DOUBLE_EQ(r.best_cost, 5.0);  // optimum of Example 1
}

TEST(DiskWalkSatTest, PerformsPageIo) {
  std::vector<GroundClause> clauses = MakeExample1Mrf(2000);
  Problem p = MakeWholeProblem(4000, clauses);
  DiskWalkSatOptions opts;
  opts.max_flips = 5;
  opts.io_latency_us = 0;
  opts.buffer_frames = 4;  // far smaller than the clause table
  auto ws = DiskWalkSat::Create(p, opts);
  ASSERT_TRUE(ws.ok());
  Rng rng(3);
  WalkSatResult r = ws.value()->Run(&rng);
  EXPECT_GT(ws.value()->pages_read(), 0u);
  EXPECT_GT(ws.value()->buffer_stats().evictions, 0u);
  EXPECT_LE(r.flips, 5u);
}

TEST(DiskWalkSatTest, OverlongClausesGoToOverflow) {
  // A 30-literal clause exceeds the on-disk record capacity; it must be
  // handled via the memory-side overflow and still steer the search.
  Problem p;
  p.num_atoms = 30;
  std::vector<Lit> big;
  for (AtomId a = 0; a < 30; ++a) big.push_back(MakeLit(a, true));
  p.AddClause(big.data(), big.size(), 5.0, false);
  DiskWalkSatOptions opts;
  opts.max_flips = 200;
  opts.io_latency_us = 0;
  opts.init_random = false;  // all-false start violates the big clause
  auto ws = DiskWalkSat::Create(p, opts);
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  Rng rng(5);
  WalkSatResult r = ws.value()->Run(&rng);
  EXPECT_DOUBLE_EQ(r.best_cost, 0.0);
}

TEST(DiskWalkSatTest, IsSlowerPerFlipThanInMemory) {
  std::vector<GroundClause> clauses = MakeExample1Mrf(500);
  Problem p = MakeWholeProblem(1000, clauses);

  DiskWalkSatOptions dopts;
  dopts.max_flips = 20;
  dopts.io_latency_us = 5;
  dopts.buffer_frames = 4;
  auto ws = DiskWalkSat::Create(p, dopts);
  ASSERT_TRUE(ws.ok());
  Rng rng(4);
  WalkSatResult disk = ws.value()->Run(&rng);

  WalkSatOptions wopts;
  wopts.max_flips = disk.flips > 0 ? disk.flips : 1;
  Rng rng2(4);
  WalkSatResult mem = WalkSat(&p, wopts, &rng2).Run();

  ASSERT_GT(disk.flips, 0u);
  double disk_rate = disk.FlipsPerSecond();
  double mem_rate = mem.FlipsPerSecond();
  EXPECT_LT(disk_rate, mem_rate);
}

// ----------------------------------------------------------- SampleSAT

TEST(SampleSatTest, FindsSatisfyingAssignment) {
  Problem p;
  p.num_atoms = 4;
  for (AtomId a = 0; a < 4; ++a) {
    const Lit l = MakeLit(a, true);
    p.AddClause(&l, 1, 1.0, false);
  }
  Rng rng(1);
  std::vector<uint8_t> out;
  ASSERT_TRUE(SampleSat(p, &rng, &out));
  for (uint8_t t : out) EXPECT_EQ(t, 1);
}

TEST(SampleSatTest, EmptyConstraintSetSamplesFreely) {
  Problem p;
  p.num_atoms = 3;
  Rng rng(2);
  std::vector<uint8_t> out;
  ASSERT_TRUE(SampleSat(p, &rng, &out));
  EXPECT_EQ(out.size(), 3u);
}

// --------------------------------------------------------------- MC-SAT

TEST(McSatTest, MarginalsMatchExactOnSingleAtom) {
  Problem p;
  p.num_atoms = 1;
  const Lit l = MakeLit(0, true);
  p.AddClause(&l, 1, 1.5, false);
  McSatOptions opts;
  opts.num_samples = 3000;
  opts.burn_in = 100;
  McSatResult r = RunMcSat(p, opts, /*seed=*/5);
  auto exact = ExactMarginals(p);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(r.marginals[0], exact.value()[0], 0.05);
}

TEST(McSatTest, MarginalsMatchExactOnSmallNetwork) {
  // a => b (w=2), unit a (w=1).
  Problem p;
  p.num_atoms = 2;
  const Lit imp[] = {MakeLit(0, false), MakeLit(1, true)};
  const Lit unit = MakeLit(0, true);
  p.AddClause(imp, 2, 2.0, false);
  p.AddClause(&unit, 1, 1.0, false);
  McSatOptions opts;
  opts.num_samples = 4000;
  opts.burn_in = 200;
  McSatResult r = RunMcSat(p, opts, /*seed=*/6);
  auto exact = ExactMarginals(p);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(r.marginals[0], exact.value()[0], 0.06);
  EXPECT_NEAR(r.marginals[1], exact.value()[1], 0.06);
}

TEST(McSatTest, HardClausesAlwaysSatisfiedInSamples) {
  Problem p;
  p.num_atoms = 2;
  const Lit hard[] = {MakeLit(0, true), MakeLit(1, true)};
  p.AddClause(hard, 2, 0.0, true);
  McSatOptions opts;
  opts.num_samples = 2000;
  McSatResult r = RunMcSat(p, opts, /*seed=*/7);
  // Exactly uniform sampling over the 3 satisfying worlds would give
  // marginals of 2/3. SampleSAT is only *near*-uniform (it returns the
  // first satisfying assignment reached from a random start, ~5/8 here),
  // so allow that known bias.
  EXPECT_NEAR(r.marginals[0], 2.0 / 3.0, 0.15);
  EXPECT_NEAR(r.marginals[1], 2.0 / 3.0, 0.15);
  EXPECT_GT(r.marginals[0] + r.marginals[1], 1.0);  // a v b always holds
}

TEST(McSatTest, NegativeWeightSuppressesAtom) {
  Problem p;
  p.num_atoms = 1;
  const Lit l = MakeLit(0, true);
  p.AddClause(&l, 1, -2.0, false);
  McSatOptions opts;
  opts.num_samples = 3000;
  opts.burn_in = 100;
  McSatResult r = RunMcSat(p, opts, /*seed=*/8);
  auto exact = ExactMarginals(p);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(r.marginals[0], exact.value()[0], 0.06);
  EXPECT_LT(r.marginals[0], 0.3);
}

}  // namespace
}  // namespace tuffy
