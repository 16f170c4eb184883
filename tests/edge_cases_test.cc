// Edge cases and failure injection across modules: contradictory hard
// evidence, empty problems, exhausted resources, shuffled warehouse
// loads, weight-merging corner cases, and restart behaviour.

#include <gtest/gtest.h>

#include <algorithm>

#include "datagen/datasets.h"
#include "exec/clause_warehouse.h"
#include "exec/tuffy_engine.h"
#include "ground/bottom_up_grounder.h"
#include "infer/component_walksat.h"
#include "infer/gauss_seidel.h"
#include "infer/mcsat.h"
#include "mln/parser.h"
#include "mrf/components.h"
#include "storage/disk_manager.h"

namespace tuffy {
namespace {

// ------------------------------------------------------------- grounding

TEST(EdgeCaseTest, HardContradictionSurfacesInEngine) {
  auto program = ParseProgram(
      "*p(t)\n"
      "*r(t)\n"
      "p(x) => r(x).\n");
  ASSERT_TRUE(program.ok());
  MlnProgram mln = program.TakeValue();
  EvidenceDb ev;
  ASSERT_TRUE(ParseEvidence("p(A)\n", &mln, &ev).ok());
  TuffyEngine engine(mln, ev, EngineOptions{});
  auto result = engine.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().grounding.hard_contradiction);
}

TEST(EdgeCaseTest, ZeroWeightClausesDropped) {
  auto program = ParseProgram(
      "q(t)\n"
      "0 q(A)\n");
  ASSERT_TRUE(program.ok());
  MlnProgram mln = program.TakeValue();
  EvidenceDb ev;
  ASSERT_TRUE(ParseEvidence("q(B)\n", &mln, &ev).ok());
  BottomUpGrounder g(mln, ev);
  auto r = g.Ground();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().clauses.num_clauses(), 0u);
}

TEST(EdgeCaseTest, OppositeWeightsCancelOnMerge) {
  // The same ground clause from rules with weights +2 and -2 merges to
  // weight 0: harmless for search (violating it costs nothing).
  GroundClauseStore store;
  GroundClause a;
  a.lits = {MakeLit(0, true), MakeLit(1, false)};
  a.weight = 2.0;
  GroundClause b = a;
  b.weight = -2.0;
  size_t ia = store.Add(std::move(a));
  size_t ib = store.Add(std::move(b));
  EXPECT_EQ(ia, ib);
  EXPECT_DOUBLE_EQ(store.clauses()[ia].weight, 0.0);
}

TEST(EdgeCaseTest, HardMergeKeepsHard) {
  GroundClauseStore store;
  GroundClause soft;
  soft.lits = {MakeLit(0, true)};
  soft.weight = 1.0;
  GroundClause hard;
  hard.lits = {MakeLit(0, true)};
  hard.hard = true;
  size_t i1 = store.Add(std::move(soft));
  size_t i2 = store.Add(std::move(hard));
  EXPECT_EQ(i1, i2);
  EXPECT_TRUE(store.clauses()[i1].hard);
}

TEST(EdgeCaseTest, EmptyDomainExistentialIsVacuouslyFalse) {
  // EXIST over an empty domain contributes no disjuncts: the remaining
  // clause is the negated body, which stays open.
  auto program = ParseProgram(
      "*p(t)\n"
      "w(empty_t, t)\n"
      "q(t)\n"
      "1 p(x), q(x) => EXIST y w(y, x)\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  MlnProgram mln = program.TakeValue();
  EvidenceDb ev;
  ASSERT_TRUE(ParseEvidence("p(A)\n", &mln, &ev).ok());
  // Domain "empty_t" has no constants. Ground clause: !q(A).
  GroundingOptions eager;
  eager.lazy_closure = false;
  BottomUpGrounder g(mln, ev, eager);
  auto r = g.Ground();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().clauses.num_clauses(), 1u);
  EXPECT_EQ(r.value().clauses.clauses()[0].lits.size(), 1u);
  EXPECT_FALSE(LitPositive(r.value().clauses.clauses()[0].lits[0]));
}

// --------------------------------------------------------------- storage

TEST(EdgeCaseTest, DiskManagerUnwritablePathFails) {
  DiskManager disk("/nonexistent_dir_tuffy/file.db");
  PageId p = disk.AllocatePage();
  char buf[kPageSize] = {};
  EXPECT_EQ(disk.WritePage(p, buf).code(), StatusCode::kIOError);
  EXPECT_EQ(disk.ReadPage(p, buf).code(), StatusCode::kIOError);
}

TEST(EdgeCaseTest, WarehouseLoadShuffledOrderPreserved) {
  std::vector<GroundClause> clauses = MakeExample1Mrf(200);
  auto wh = ClauseWarehouse::Create(clauses, 4, 0);
  ASSERT_TRUE(wh.ok());
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < clauses.size(); ++i) ids.push_back(i);
  // Reverse order: physical access is sorted internally but results must
  // align with the request.
  std::reverse(ids.begin(), ids.end());
  auto loaded = wh.value()->Load(ids);
  ASSERT_TRUE(loaded.ok());
  for (size_t k = 0; k < ids.size(); ++k) {
    EXPECT_EQ(loaded.value()[k].lits, clauses[ids[k]].lits) << k;
  }
}

// ---------------------------------------------------------------- search

TEST(EdgeCaseTest, WalkSatOnEmptyProblem) {
  Problem p;
  p.num_atoms = 3;  // atoms but no clauses
  WalkSatOptions opts;
  opts.max_flips = 100;
  Rng rng(1);
  WalkSatResult r = WalkSat(&p, opts, &rng).Run();
  EXPECT_DOUBLE_EQ(r.best_cost, 0.0);
  EXPECT_EQ(r.flips, 0u);
}

TEST(EdgeCaseTest, WalkSatFrustratedPairKeepsBestCost) {
  // A frustrated pair: one side is always violated, and best tracking
  // holds across the whole flip budget.
  Problem p;
  p.num_atoms = 1;
  const Lit pos = MakeLit(0, true);
  const Lit neg = MakeLit(0, false);
  p.AddClause(&pos, 1, 1.0, false);
  p.AddClause(&neg, 1, 1.0, false);
  WalkSatOptions opts;
  opts.max_flips = 200;
  Rng rng(2);
  WalkSatResult r = WalkSat(&p, opts, &rng).Run();
  EXPECT_DOUBLE_EQ(r.best_cost, 1.0);  // one side always violated
}

TEST(EdgeCaseTest, ComponentSearchOnEmptyMrf) {
  std::vector<GroundClause> clauses;
  ComponentSet cs = DetectComponents(0, clauses);
  ComponentSearchOptions opts;
  opts.total_flips = 100;
  ComponentSearchResult r = RunComponentWalkSat(0, clauses, cs, opts, 1);
  EXPECT_DOUBLE_EQ(r.cost, 0.0);
  EXPECT_TRUE(r.truth.empty());
}

TEST(EdgeCaseTest, GaussSeidelSinglePartitionEqualsWalkSat) {
  std::vector<GroundClause> clauses = MakeExample1Mrf(5);
  PartitionResult pr = PartitionMrf(10, clauses, UINT64_MAX);
  // Example 1 is disconnected so this yields 5 partitions with no cut;
  // Gauss-Seidel must still find the optimum.
  GaussSeidelOptions opts;
  opts.sweeps = 3;
  opts.flips_per_partition = 2000;
  GaussSeidelResult r = RunGaussSeidel(10, clauses, pr, opts, 3);
  EXPECT_DOUBLE_EQ(r.cost, 5.0);
}

TEST(EdgeCaseTest, McSatZeroAtoms) {
  Problem p;
  McSatOptions opts;
  opts.num_samples = 5;
  opts.burn_in = 1;
  McSatResult r = RunMcSat(p, opts, 1);
  EXPECT_TRUE(r.marginals.empty());
}

TEST(EdgeCaseTest, EngineDeterministicAcrossRuns) {
  RcParams params;
  params.num_clusters = 3;
  params.papers_per_cluster = 4;
  Dataset ds = MakeRcDataset(params).TakeValue();
  EngineOptions opts;
  opts.total_flips = 5000;
  opts.seed = 99;
  TuffyEngine e1(ds.program, ds.evidence, opts);
  TuffyEngine e2(ds.program, ds.evidence, opts);
  auto r1 = e1.Run();
  auto r2 = e2.Run();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ(r1.value().total_cost, r2.value().total_cost);
  EXPECT_EQ(r1.value().truth, r2.value().truth);
}

TEST(EdgeCaseTest, EngineThreadCountDoesNotChangeClauseSet) {
  RcParams params;
  params.num_clusters = 4;
  params.papers_per_cluster = 4;
  Dataset ds = MakeRcDataset(params).TakeValue();
  EngineOptions opts;
  opts.search_mode = SearchMode::kComponentAware;
  opts.total_flips = 20000;
  opts.num_threads = 1;
  TuffyEngine e1(ds.program, ds.evidence, opts);
  opts.num_threads = 8;
  TuffyEngine e8(ds.program, ds.evidence, opts);
  auto r1 = e1.Run();
  auto r8 = e8.Run();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r8.ok());
  EXPECT_EQ(r1.value().grounding.clauses.num_clauses(),
            r8.value().grounding.clauses.num_clauses());
  // Both must produce valid, fully-sized assignments.
  EXPECT_EQ(r8.value().truth.size(), r8.value().grounding.atoms.num_atoms());
}

TEST(EdgeCaseTest, NegativeEvidenceOnClosedWorldPredicate) {
  // Explicit false evidence on a closed-world predicate is redundant but
  // legal; grounding must treat it as false, not crash.
  auto program = ParseProgram(
      "*r(t, t)\n"
      "q(t)\n"
      "2 r(x, y) => q(y)\n");
  ASSERT_TRUE(program.ok());
  MlnProgram mln = program.TakeValue();
  EvidenceDb ev;
  ASSERT_TRUE(ParseEvidence("r(A, B)\n!r(B, A)\n", &mln, &ev).ok());
  BottomUpGrounder g(mln, ev);
  auto r = g.Ground();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().clauses.num_clauses(), 1u);  // only r(A,B) fires
}

}  // namespace
}  // namespace tuffy
