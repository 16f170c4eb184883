// Microbenchmarks (google-benchmark) for the performance-critical
// primitives underneath the experiments: join operators (Volcano, and
// the batch hash join over LP-shaped relations), WalkSAT flips,
// buffer-pool access, union-find, grounding of the RC program, and
// parsing LP's evidence text.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "datagen/datasets.h"
#include "util/timer.h"
#include "ground/bottom_up_grounder.h"
#include "infer/exact/exact_solver.h"
#include "infer/problem.h"
#include "infer/walksat.h"
#include "mln/parser.h"
#include "mrf/components.h"
#include "ra/operators.h"
#include "ra/vec_ops.h"
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

/// perfbench's LP relations at 1/8 of its publications: `publication`
/// (64,000 publications of one professor and one student each, 128,000
/// rows of (pub, person)) and `professor` (10 rows), read from
/// MakeLpDataset's evidence; and `sparse`, the publication rows with
/// each pub id scattered over [0, 2^31), so the same join is hashed.
struct LpJoinInput {
  const IdTable* publication = nullptr;
  const IdTable* professor = nullptr;
  IdTable sparse;
  TableStats publication_stats;
  TableStats professor_stats;
  TableStats sparse_stats;
  Dataset ds;
};

const LpJoinInput& LpJoin() {
  static const LpJoinInput* input = [] {
    auto* in = new LpJoinInput;
    LpParams params;
    params.num_professors = 10;
    params.num_students = 40;
    params.num_courses = 100;
    params.num_publications = 64000;
    in->ds = MakeLpDataset(params).TakeValue();
    const MlnProgram& program = in->ds.program;
    in->publication = &in->ds.evidence.rows(
        program.FindPredicate("publication").value(), true);
    in->professor = &in->ds.evidence.rows(
        program.FindPredicate("professor").value(), true);
    in->sparse.Init(2);
    for (size_t r = 0; r < in->publication->num_rows(); ++r) {
      const int64_t pub = in->publication->col(0)[r];
      in->sparse.AppendRow(std::vector<int64_t>{
          (pub * 40503) & INT32_MAX, in->publication->col(1)[r]});
    }
    in->publication_stats = AnalyzeColumns({in->publication}, 2);
    in->professor_stats = AnalyzeColumns({in->professor}, 1);
    in->sparse_stats = AnalyzeColumns({&in->sparse}, 2);
    return in;
  }();
  return *input;
}

/// The joins of BM_VecHashJoin: LP rule 0's `pb` self-join and its
/// `person` join (professor ⋈ publication), both direct-addressed, and
/// the `pb` self-join over sparse pub ids, hashed.
enum VecJoinCase { kPbSelfJoin, kPersonJoin, kSparseSelfJoin };
constexpr const char* kVecJoinCaseNames[] = {"pb_self_join", "person_join",
                                             "sparse_self_join"};

struct VecJoinRun {
  uint64_t input_rows = 0;
  uint64_t output_rows = 0;
  std::string name;
};

/// Runs one case to completion: the build reads a bare scan in place, as
/// in a grounding plan.
VecJoinRun RunVecJoin(VecJoinCase c) {
  const LpJoinInput& in = LpJoin();
  auto ref = [](const IdTable* rows, const TableStats& stats) {
    TableRef r;
    r.segments = {rows};
    r.stats = &stats;
    r.label = "lp";
    return r;
  };
  const IdTable* build = c == kSparseSelfJoin ? &in.sparse : in.publication;
  const TableStats& build_stats =
      c == kSparseSelfJoin ? in.sparse_stats : in.publication_stats;
  const IdTable* probe = c == kPersonJoin ? in.professor : build;
  const TableStats& probe_stats =
      c == kPersonJoin ? in.professor_stats : build_stats;
  const std::vector<JoinKey> keys = {{0, c == kPersonJoin ? 1 : 0}};
  VecHashJoinOp join(std::make_unique<VecScanOp>(ref(probe, probe_stats)),
                     std::make_unique<VecScanOp>(ref(build, build_stats)),
                     keys);
  VecJoinRun run;
  Status st = ForEachChunk(&join, [&](const ColumnChunk& chunk) {
    run.output_rows += chunk.num_rows;
    return Status::OK();
  });
  if (!st.ok()) {
    std::fprintf(stderr, "vec join: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  run.input_rows = probe->num_rows() + build->num_rows();
  run.name = join.name();
  return run;
}

void BM_VecHashJoin(benchmark::State& state) {
  const auto c = static_cast<VecJoinCase>(state.range(0));
  VecJoinRun run;
  for (auto _ : state) {
    run = RunVecJoin(c);
    benchmark::DoNotOptimize(run.output_rows);
  }
  state.SetLabel(std::string(kVecJoinCaseNames[c]) + " " + run.name);
  state.SetItemsProcessed(state.iterations() * run.input_rows);
}
BENCHMARK(BM_VecHashJoin)
    ->Arg(kPbSelfJoin)
    ->Arg(kPersonJoin)
    ->Arg(kSparseSelfJoin)
    ->Unit(benchmark::kMillisecond);

void BM_WalkSatFlips(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<GroundClause> clauses = MakeExample1Mrf(n);
  Problem p = MakeWholeProblem(2 * n, clauses);
  WalkSatOptions opts;
  Rng rng(3);
  WalkSat search(&p, opts, &rng);
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

/// The components of an IE dataset with perfbench's IE parameters (3000
/// citations of 5 positions, 4 fields, 250 token rules) at seed 1,
/// grounded bottom-up.
struct IeComponents {
  std::vector<GroundClause> clauses;
  ComponentSet components;
};

IeComponents MakeIeComponents() {
  IeParams params;
  params.num_citations = 3000;
  params.positions_per_citation = 5;
  params.num_fields = 4;
  params.vocabulary = 120;
  params.num_token_rules = 250;
  params.seed = 1;
  Dataset ds = MakeIeDataset(params).TakeValue();
  BottomUpGrounder grounder(ds.program, ds.evidence);
  GroundingResult g = grounder.Ground().TakeValue();
  IeComponents out;
  out.clauses = g.clauses.clauses();
  out.components = DetectComponents(g.atoms.num_atoms(), out.clauses);
  return out;
}

/// Builds every component's sub-problem and solves it exactly, as the
/// component solver does; returns the number solved.
size_t SolveEachComponent(const IeComponents& ie) {
  size_t solved = 0;
  for (size_t c = 0; c < ie.components.num_components(); ++c) {
    SubProblem sub =
        BuildSubProblem(ie.clauses, ie.components.clauses[c],
                        ie.components.atoms[c], ie.components.position_of_atom);
    solved += TrySolveExact(sub.problem, 1e6, false).solved ? 1 : 0;
  }
  return solved;
}

void BM_ComponentSolve(benchmark::State& state) {
  const IeComponents ie = MakeIeComponents();
  for (auto _ : state) benchmark::DoNotOptimize(SolveEachComponent(ie));
  state.SetItemsProcessed(state.iterations() *
                          ie.components.num_components());
}
BENCHMARK(BM_ComponentSolve)->Unit(benchmark::kMillisecond);

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

/// LP evidence text in perfbench's LP shape at 1/16 of its publications
/// (64,289 rows), one atom per line, and the program it is read into.
struct EvidenceText {
  MlnProgram program;
  std::string text;
  size_t rows = 0;
};

EvidenceText MakeLpEvidenceText() {
  LpParams params;
  params.num_professors = 10;
  params.num_students = 40;
  params.num_courses = 100;
  params.num_publications = 32000;
  Dataset ds = MakeLpDataset(params).TakeValue();
  EvidenceText out;
  for (const auto& [atom, truth] : ds.evidence.entries()) {
    if (!truth) out.text += '!';
    out.text += ds.program.predicate(atom.pred).name + "(";
    for (size_t i = 0; i < atom.args.size(); ++i) {
      if (i > 0) out.text += ", ";
      out.text += ConstantLiteral(ds.program.symbols().SymbolName(atom.args[i]));
    }
    out.text += ")\n";
  }
  out.program = ParseProgram(ds.program.ToString()).TakeValue();
  out.rows = ds.evidence.num_evidence();
  return out;
}

/// Parses `ev.text` into a copy of its program; returns the rows read.
size_t ParseEvidenceOnce(const EvidenceText& ev) {
  MlnProgram program = ev.program;
  EvidenceDb db;
  Status st = ParseEvidence(ev.text, &program, &db);
  if (!st.ok()) {
    std::fprintf(stderr, "evidence parse: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  return db.num_evidence();
}

void BM_ParseEvidence(benchmark::State& state) {
  const EvidenceText ev = MakeLpEvidenceText();
  for (auto _ : state) benchmark::DoNotOptimize(ParseEvidenceOnce(ev));
  state.SetItemsProcessed(state.iterations() * ev.rows);
}
BENCHMARK(BM_ParseEvidence)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tuffy

// Custom main: run the registered microbenchmarks, then emit
// machine-readable lines (see bench_json.h): the flip rate, the
// evidence-parse rate, one batch hash-join row per case and the
// per-component build-and-solve time, so the search kernel's, the text
// front end's, the join's and the component path's trajectories can be
// tracked across PRs alongside the --benchmark_format=json output.
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
  WalkSat search(&p, opts, &rng);
  Timer timer;
  const uint64_t kFlips = 2000000;
  uint64_t done = search.RunFlips(kFlips);
  double seconds = timer.ElapsedSeconds();
  bench::PrintJsonLine("micro_ops_walksat_flips", "example1_n10000",
                       "incremental",
                       seconds > 0 ? static_cast<double>(done) / seconds : 0,
                       seconds, done, search.best_cost());

  // The fastest of three parses, so one slow run does not set the rate.
  const EvidenceText ev = MakeLpEvidenceText();
  double parse_s = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    Timer parse_timer;
    ParseEvidenceOnce(ev);
    const double s = parse_timer.ElapsedSeconds();
    if (rep == 0 || s < parse_s) parse_s = s;
  }
  bench::BenchJson("micro_ops_parse_evidence")
      .Str("dataset", "lp_64k")
      .Int("rows", ev.rows)
      .Num("seconds", parse_s, 6)
      .Num("rows_per_s", parse_s > 0 ? ev.rows / parse_s : 0, 1)
      .Emit();

  // Each join case's fastest of five runs; rows are build plus probe
  // rows, and the mode is the one the join's EXPLAIN name reports.
  for (VecJoinCase c : {kPbSelfJoin, kPersonJoin, kSparseSelfJoin}) {
    VecJoinRun run;
    double join_s = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      Timer join_timer;
      run = RunVecJoin(c);
      const double s = join_timer.ElapsedSeconds();
      if (rep == 0 || s < join_s) join_s = s;
    }
    const bool direct = run.name.find("direct") != std::string::npos;
    bench::BenchJson("micro_ops_vec_join")
        .Str("dataset", "lp_pub_64k")
        .Str("case", kVecJoinCaseNames[c])
        .Str("mode", direct ? "direct" : "hashed")
        .Int("rows", run.input_rows)
        .Int("output_rows", run.output_rows)
        .Num("seconds", join_s, 6)
        .Num("rows_per_s", join_s > 0 ? run.input_rows / join_s : 0, 1)
        .Emit();
  }

  // The fastest of five passes over IE's components.
  const IeComponents ie = MakeIeComponents();
  const size_t num_components = ie.components.num_components();
  double solve_s = 0.0;
  size_t solved = 0;
  for (int rep = 0; rep < 5; ++rep) {
    Timer solve_timer;
    solved = SolveEachComponent(ie);
    const double s = solve_timer.ElapsedSeconds();
    if (rep == 0 || s < solve_s) solve_s = s;
  }
  bench::BenchJson("micro_ops_component_solve")
      .Str("dataset", "ie_seed1")
      .Int("components", num_components)
      .Int("exact", solved)
      .Num("seconds", solve_s, 6)
      .Num("us_per_component",
           num_components > 0 ? solve_s * 1e6 / num_components : 0, 3)
      .Emit();
  return 0;
}
