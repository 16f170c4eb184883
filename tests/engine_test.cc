#include <gtest/gtest.h>

#include "datagen/datasets.h"
#include "exec/clause_warehouse.h"
#include "exec/tuffy_engine.h"
#include "infer/brute_force.h"
#include "mln/parser.h"
#include "util/timer.h"

namespace tuffy {
namespace {

Dataset SmallRc() {
  RcParams p;
  p.num_clusters = 4;
  p.papers_per_cluster = 5;
  p.num_categories = 4;
  auto r = MakeRcDataset(p);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.TakeValue();
}

// ------------------------------------------------------- end-to-end modes

class EngineModeTest : public ::testing::TestWithParam<SearchMode> {};

TEST_P(EngineModeTest, RunsAndReportsConsistentCost) {
  Dataset ds = SmallRc();
  EngineOptions opts;
  opts.search_mode = GetParam();
  opts.total_flips = 20000;
  opts.rounds = 4;
  // The flips check below is about the sampler: SmallRc is ground
  // lazily, and its components are within the exact solver's width.
  opts.exact_fast_path = false;
  if (GetParam() == SearchMode::kDisk) {
    opts.total_flips = 200;
    opts.disk_io_latency_us = 0;
  }
  TuffyEngine engine(ds.program, ds.evidence, opts);
  auto result = engine.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const EngineResult& r = result.value();
  EXPECT_GT(r.grounding.atoms.num_atoms(), 0u);
  EXPECT_GT(r.grounding.clauses.num_clauses(), 0u);
  EXPECT_EQ(r.truth.size(), r.grounding.atoms.num_atoms());
  // Reported cost must equal a from-scratch evaluation.
  Problem whole = MakeWholeProblem(r.grounding.atoms.num_atoms(),
                                   r.grounding.clauses.clauses());
  EXPECT_NEAR(r.search_cost, whole.EvalCost(r.truth, opts.hard_weight), 1e-9);
  EXPECT_NEAR(r.total_cost, r.search_cost + r.grounding.fixed_cost, 1e-9);
  EXPECT_GT(r.flips, 0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, EngineModeTest,
                         ::testing::Values(SearchMode::kInMemory,
                                           SearchMode::kComponentAware,
                                           SearchMode::kPartitionAware,
                                           SearchMode::kDisk));

TEST(EngineTest, GroundingModesAgree) {
  Dataset ds = SmallRc();
  EngineOptions opts;
  opts.total_flips = 5000;
  opts.grounding_mode = GroundingMode::kBottomUp;
  TuffyEngine bu(ds.program, ds.evidence, opts);
  opts.grounding_mode = GroundingMode::kTopDown;
  TuffyEngine td(ds.program, ds.evidence, opts);
  auto rb = bu.Run();
  auto rt = td.Run();
  ASSERT_TRUE(rb.ok());
  ASSERT_TRUE(rt.ok());
  EXPECT_EQ(rb.value().grounding.clauses.num_clauses(),
            rt.value().grounding.clauses.num_clauses());
  EXPECT_EQ(rb.value().grounding.atoms.num_atoms(),
            rt.value().grounding.atoms.num_atoms());
}

TEST(EngineTest, ComponentAwareDetectsComponents) {
  Dataset ds = SmallRc();
  EngineOptions opts;
  opts.search_mode = SearchMode::kComponentAware;
  opts.total_flips = 5000;
  TuffyEngine engine(ds.program, ds.evidence, opts);
  auto result = engine.Run();
  ASSERT_TRUE(result.ok());
  // RC clusters are disjoint: one component per cluster (4).
  EXPECT_EQ(result.value().num_components, 4u);
}

TEST(EngineTest, MemoryBudgetCreatesPartitions) {
  Dataset ds = SmallRc();
  EngineOptions opts;
  opts.search_mode = SearchMode::kPartitionAware;
  opts.total_flips = 5000;
  opts.memory_budget_bytes = 160;  // force splitting
  TuffyEngine engine(ds.program, ds.evidence, opts);
  auto result = engine.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().num_partitions, result.value().num_components);
}

TEST(EngineTest, SmallerBudgetSmallerPeak) {
  Dataset ds = SmallRc();
  EngineOptions opts;
  opts.search_mode = SearchMode::kPartitionAware;
  opts.total_flips = 5000;
  TuffyEngine unbounded(ds.program, ds.evidence, opts);
  auto big = unbounded.Run();
  ASSERT_TRUE(big.ok());
  opts.memory_budget_bytes = 160;
  TuffyEngine bounded(ds.program, ds.evidence, opts);
  auto small = bounded.Run();
  ASSERT_TRUE(small.ok());
  EXPECT_LT(small.value().peak_search_bytes, big.value().peak_search_bytes);
}

TEST(EngineTest, BatchLoadingReducesPageReads) {
  Dataset ds = SmallRc();
  EngineOptions opts;
  opts.search_mode = SearchMode::kComponentAware;
  opts.total_flips = 2000;
  opts.simulate_loading_io = true;
  opts.loading_io_latency_us = 0;
  opts.loading_buffer_frames = 2;

  opts.batch_loading = true;
  TuffyEngine batched(ds.program, ds.evidence, opts);
  auto rb = batched.Run();
  ASSERT_TRUE(rb.ok());

  opts.batch_loading = false;
  TuffyEngine unbatched(ds.program, ds.evidence, opts);
  auto ru = unbatched.Run();
  ASSERT_TRUE(ru.ok());
  // Same search quality accounting either way.
  EXPECT_EQ(rb.value().grounding.clauses.num_clauses(),
            ru.value().grounding.clauses.num_clauses());
}

// Memory budget and batch loading are scheduling knobs, never semantics
// knobs: an FFD batch decides which components are resident, while each
// component's seeds and flip budget depend only on the component and the
// whole MRF.
TEST(EngineTest, BatchingNeverChangesTheAnswer) {
  RcParams p;
  p.num_clusters = 12;
  p.papers_per_cluster = 5;
  auto ds = MakeRcDataset(p);
  ASSERT_TRUE(ds.ok());
  EngineOptions opts;
  opts.search_mode = SearchMode::kComponentAware;
  opts.total_flips = 60000;
  opts.num_threads = 2;
  // Seeds and budgets are the point; these lazily ground components are
  // within the exact solver's width.
  opts.exact_fast_path = false;
  auto run = [&](const EngineOptions& o) {
    auto r = TuffyEngine(ds.value().program, ds.value().evidence, o).Run();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.TakeValue();
  };
  const EngineResult one_batch = run(opts);

  EngineOptions per_component = opts;
  per_component.batch_loading = false;
  EngineOptions budgeted = opts;
  budgeted.memory_budget_bytes = one_batch.peak_search_bytes / 4;
  const EngineResult budgeted_run = run(budgeted);
  // No batch holds more than a third of the search state: at least three
  // batches.
  ASSERT_LE(3 * budgeted_run.peak_search_bytes, one_batch.peak_search_bytes);

  for (const EngineResult& r : {run(per_component), budgeted_run}) {
    EXPECT_EQ(r.truth, one_batch.truth);
    EXPECT_EQ(r.flips, one_batch.flips);
    EXPECT_EQ(r.total_cost, one_batch.total_cost);
  }
}

TEST(EngineTest, ThreadCountAboveTheCeilingIsRefused) {
  // Validation only: no pool is started at either count.
  EngineOptions engine;
  engine.num_threads = kMaxWorkerThreads;
  EXPECT_TRUE(ValidateEngineOptions(engine).ok());
  engine.num_threads = kMaxWorkerThreads + 1;
  EXPECT_EQ(ValidateEngineOptions(engine).code(),
            StatusCode::kInvalidArgument);
  SessionOptions session;
  session.num_threads = kMaxWorkerThreads;
  EXPECT_TRUE(ValidateSessionOptions(session).ok());
  session.num_threads = kMaxWorkerThreads + 1;
  EXPECT_EQ(ValidateSessionOptions(session).code(),
            StatusCode::kInvalidArgument);

  // Run and Open validate before they make a pool.
  auto parsed = ParseProgram("p(thing)\n1 p(x)\n");
  ASSERT_TRUE(parsed.ok());
  MlnProgram program = parsed.TakeValue();
  program.symbols().Intern("T0", "thing");
  EvidenceDb evidence;
  TuffyEngine run(program, evidence, engine);
  EXPECT_EQ(run.Run().status().code(), StatusCode::kInvalidArgument);
  InferenceSession open(program, session);
  EXPECT_EQ(open.Open(evidence).code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, TimeoutRespected) {
  Dataset ds = SmallRc();
  EngineOptions opts;
  opts.total_flips = UINT64_MAX / 2;
  opts.search_mode = SearchMode::kInMemory;
  opts.timeout_seconds = 0.2;
  TuffyEngine engine(ds.program, ds.evidence, opts);
  Timer t;
  auto result = engine.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_LT(t.ElapsedSeconds(), 10.0);
}

TEST(EngineTest, EmptyProgramYieldsEmptyResult) {
  auto program = ParseProgram("q(t)\n");
  ASSERT_TRUE(program.ok());
  MlnProgram p = program.TakeValue();
  EvidenceDb ev;
  TuffyEngine engine(p, ev, EngineOptions{});
  auto result = engine.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().grounding.atoms.num_atoms(), 0u);
  EXPECT_DOUBLE_EQ(result.value().total_cost, 0.0);
}

// ------------------------------------------------- semantic MAP quality

TEST(EngineTest, ClassifiesPaperByCitation) {
  // P2 labeled DB; P1 cites P2 and P3 cites P1: rule F3 (and F1) should
  // label P1 and P3 as DB too in the MAP state.
  const char* mln =
      "*cites(paper, paper)\n"
      "cat(paper, category)\n"
      "5 cat(p, c1), cat(p, c2) => c1 = c2\n"
      "2 cat(p1, c), cites(p1, p2) => cat(p2, c)\n";
  auto program = ParseProgram(mln);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  MlnProgram p = program.TakeValue();
  // Seed the category domain.
  p.symbols().Intern("DB", "category");
  p.symbols().Intern("AI", "category");
  EvidenceDb ev;
  ASSERT_TRUE(ParseEvidence(
                  "cat(P2, DB)\n"
                  "cites(P2, P1)\n"
                  "cites(P1, P3)\n",
                  &p, &ev)
                  .ok());
  EngineOptions opts;
  opts.total_flips = 50000;
  opts.search_mode = SearchMode::kComponentAware;
  TuffyEngine engine(p, ev, opts);
  auto result = engine.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto labels = ExtractTrueAtoms(p, result.value().grounding.atoms,
                                 result.value().truth, "cat");
  ASSERT_TRUE(labels.ok());
  ConstantId db = p.symbols().Find("DB");
  ConstantId p1 = p.symbols().Find("P1");
  ConstantId p3 = p.symbols().Find("P3");
  bool p1_db = false, p3_db = false;
  for (const GroundAtom& a : labels.value()) {
    if (a.args[0] == p1 && a.args[1] == db) p1_db = true;
    if (a.args[0] == p3 && a.args[1] == db) p3_db = true;
  }
  EXPECT_TRUE(p1_db);
  EXPECT_TRUE(p3_db);
}

TEST(EngineTest, MatchesExactMapOnTinyDataset) {
  const char* mln =
      "*sim(rec, rec)\n"
      "same(rec, rec)\n"
      "2 sim(a, b) => same(a, b)\n"
      "-0.5 same(a, b)\n"
      "1 same(a, b), same(b, c) => same(a, c)\n";
  auto program = ParseProgram(mln);
  ASSERT_TRUE(program.ok());
  MlnProgram p = program.TakeValue();
  EvidenceDb ev;
  ASSERT_TRUE(ParseEvidence("sim(R1, R2)\nsim(R2, R3)\n", &p, &ev).ok());
  EngineOptions opts;
  opts.total_flips = 100000;
  TuffyEngine engine(p, ev, opts);
  auto result = engine.Run();
  ASSERT_TRUE(result.ok());
  const EngineResult& r = result.value();
  ASSERT_LE(r.grounding.atoms.num_atoms(), 20u);
  Problem whole = MakeWholeProblem(r.grounding.atoms.num_atoms(),
                                   r.grounding.clauses.clauses());
  auto exact = ExactMap(whole, opts.hard_weight);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(r.search_cost, exact.value().cost, 1e-9);
}

// ---------------------------------------------------------- warehouse

TEST(ClauseWarehouseTest, RoundTripsClauses) {
  std::vector<GroundClause> clauses = MakeExample1Mrf(100);
  auto wh = ClauseWarehouse::Create(clauses, 8, 0);
  ASSERT_TRUE(wh.ok());
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < clauses.size(); i += 3) ids.push_back(i);
  auto loaded = wh.value()->Load(ids);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), ids.size());
  for (size_t k = 0; k < ids.size(); ++k) {
    EXPECT_EQ(loaded.value()[k].lits, clauses[ids[k]].lits);
    EXPECT_EQ(loaded.value()[k].weight, clauses[ids[k]].weight);
  }
}

TEST(ClauseWarehouseTest, OverflowClausesHandled) {
  std::vector<GroundClause> clauses;
  GroundClause big;
  for (AtomId a = 0; a < 40; ++a) big.lits.push_back(MakeLit(a, true));
  big.weight = 2.0;
  clauses.push_back(big);
  GroundClause small;
  small.lits = {MakeLit(0, false)};
  small.weight = 1.0;
  clauses.push_back(small);
  auto wh = ClauseWarehouse::Create(clauses, 8, 0);
  ASSERT_TRUE(wh.ok());
  auto loaded = wh.value()->Load({0, 1});
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value()[0].lits.size(), 40u);
  EXPECT_EQ(loaded.value()[1].lits.size(), 1u);
}

TEST(ClauseWarehouseTest, ScatteredLoadsCostMoreReads) {
  std::vector<GroundClause> clauses = MakeExample1Mrf(20000);
  // Tiny pool so pages cannot all stay resident.
  auto wh = ClauseWarehouse::Create(clauses, 2, 0);
  ASSERT_TRUE(wh.ok());
  // One bulk pass (sequential).
  std::vector<uint32_t> all(clauses.size());
  for (uint32_t i = 0; i < clauses.size(); ++i) all[i] = i;
  ASSERT_TRUE(wh.value()->Load(all).ok());
  uint64_t sequential = wh.value()->pages_read();

  auto wh2 = ClauseWarehouse::Create(clauses, 2, 0);
  ASSERT_TRUE(wh2.ok());
  // Strided loads (component-by-component pattern): revisit pages often.
  for (uint32_t s = 0; s < 50; ++s) {
    std::vector<uint32_t> stride;
    for (uint32_t i = s; i < clauses.size(); i += 50) stride.push_back(i);
    ASSERT_TRUE(wh2.value()->Load(stride).ok());
  }
  uint64_t scattered = wh2.value()->pages_read();
  EXPECT_GT(scattered, 5 * sequential);
}

}  // namespace
}  // namespace tuffy
