// Microbenchmarks (google-benchmark) for the performance-critical
// primitives underneath the experiments: join operators, WalkSAT flips,
// buffer-pool access, union-find, and grounding of the RC program.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "datagen/datasets.h"
#include "util/timer.h"
#include "ground/bottom_up_grounder.h"
#include "infer/walksat.h"
#include "mrf/components.h"
#include "ra/operators.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "util/rng.h"
#include "util/union_find.h"

namespace tuffy {
namespace {

Table MakeIntTable(const std::string& name, int rows, int key_mod,
                   uint64_t seed) {
  Table t(name,
          Schema({{"k", ColumnType::kInt64}, {"v", ColumnType::kInt64}}));
  Rng rng(seed);
  for (int i = 0; i < rows; ++i) {
    t.Append({Datum(static_cast<int64_t>(rng.Uniform(key_mod))),
              Datum(static_cast<int64_t>(i))});
  }
  t.Analyze();
  return t;
}

template <typename JoinOp>
void RunJoin(benchmark::State& state) {
  int rows = static_cast<int>(state.range(0));
  Table l = MakeIntTable("l", rows, rows / 4 + 1, 1);
  Table r = MakeIntTable("r", rows, rows / 4 + 1, 2);
  for (auto _ : state) {
    auto join = std::make_unique<JoinOp>(
        std::make_unique<SeqScanOp>(RefTo(l)),
        std::make_unique<SeqScanOp>(RefTo(r)), std::vector<JoinKey>{{0, 0}});
    auto out = ExecuteToTable(join.get(), "out");
    benchmark::DoNotOptimize(out.value().num_rows());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}

void BM_HashJoin(benchmark::State& state) { RunJoin<HashJoinOp>(state); }
void BM_SortMergeJoin(benchmark::State& state) {
  RunJoin<SortMergeJoinOp>(state);
}
void BM_NestedLoopJoin(benchmark::State& state) {
  RunJoin<NestedLoopJoinOp>(state);
}
BENCHMARK(BM_HashJoin)->Arg(1000)->Arg(4000);
BENCHMARK(BM_SortMergeJoin)->Arg(1000)->Arg(4000);
BENCHMARK(BM_NestedLoopJoin)->Arg(1000)->Arg(4000);

void BM_WalkSatFlips(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<GroundClause> clauses = MakeExample1Mrf(n);
  Problem p = MakeWholeProblem(2 * n, clauses);
  WalkSatOptions opts;
  Rng rng(3);
  IncrementalWalkSat search(&p, opts, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.RunFlips(1000));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_WalkSatFlips)->Arg(100)->Arg(10000);

void BM_BufferPoolHit(benchmark::State& state) {
  DiskManager disk;
  BufferPool pool(16, &disk);
  auto page = pool.NewPage();
  PageId id = page.value()->page_id();
  (void)pool.UnpinPage(id, true);
  for (auto _ : state) {
    auto p = pool.FetchPage(id);
    benchmark::DoNotOptimize(p.value());
    (void)pool.UnpinPage(id, false);
  }
}
BENCHMARK(BM_BufferPoolHit);

void BM_BufferPoolMiss(benchmark::State& state) {
  DiskManager disk;
  BufferPool pool(2, &disk);
  std::vector<PageId> ids;
  for (int i = 0; i < 64; ++i) {
    auto page = pool.NewPage();
    ids.push_back(page.value()->page_id());
    (void)pool.UnpinPage(ids.back(), true);
  }
  size_t next = 0;
  for (auto _ : state) {
    auto p = pool.FetchPage(ids[next]);
    benchmark::DoNotOptimize(p.value());
    (void)pool.UnpinPage(ids[next], false);
    next = (next + 7) % ids.size();  // defeat the 2-frame cache
  }
}
BENCHMARK(BM_BufferPoolMiss);

void BM_UnionFindComponents(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<GroundClause> clauses = MakeExample1Mrf(n);
  for (auto _ : state) {
    ComponentSet cs = DetectComponents(2 * n, clauses);
    benchmark::DoNotOptimize(cs.num_components());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_UnionFindComponents)->Arg(10000);

void BM_GroundRc(benchmark::State& state) {
  RcParams params;
  params.num_clusters = static_cast<int>(state.range(0));
  params.papers_per_cluster = 8;
  Dataset ds = MakeRcDataset(params).TakeValue();
  for (auto _ : state) {
    BottomUpGrounder grounder(ds.program, ds.evidence);
    auto g = grounder.Ground();
    benchmark::DoNotOptimize(g.value().clauses.num_clauses());
  }
}
BENCHMARK(BM_GroundRc)->Arg(10)->Arg(40)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tuffy

// Custom main: run the registered microbenchmarks, then emit one
// machine-readable flip-rate line (see bench_common.h) so the search-
// kernel trajectory can be tracked across PRs alongside the
// --benchmark_format=json output.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  using namespace tuffy;  // NOLINT
  std::vector<GroundClause> clauses = MakeExample1Mrf(10000);
  Problem p = MakeWholeProblem(20000, clauses);
  WalkSatOptions opts;
  Rng rng(3);
  IncrementalWalkSat search(&p, opts, &rng);
  Timer timer;
  const uint64_t kFlips = 2000000;
  uint64_t done = search.RunFlips(kFlips);
  double seconds = timer.ElapsedSeconds();
  bench::PrintJsonLine("micro_ops_walksat_flips", "example1_n10000",
                       "incremental",
                       seconds > 0 ? static_cast<double>(done) / seconds : 0,
                       seconds, done, search.best_cost());
  return 0;
}
