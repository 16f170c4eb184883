// Batch path: TuffyEngine::Run, repeated for the run's seconds with
// instrumentation off (the batch workloads' end-to-end run), or — in a
// traced run — alternated with an instrumented Run and followed by
// standalone calls into the ground, mrf, and infer layers.

#include <cstdio>
#include <cstdlib>
#include <malloc.h>
#include <string>
#include <vector>

#include "common.h"
#include "ground/atom_loader.h"
#include "ground/bottom_up_grounder.h"
#include "infer/component_walksat.h"
#include "infer/problem.h"
#include "mrf/components.h"
#include "obs/metrics.h"
#include "ra/catalog.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tuffy::EngineResult;

/// One checked Run.
struct RunOutcome {
  bool ok = false;
  double wall_s = 0.0;
  EngineResult result;
};

/// Runs the engine once and checks its output: Run succeeds, and
/// re-evaluating the returned truth over the whole MRF reproduces
/// search_cost exactly.
RunOutcome RunOnce(const Input& input, const tuffy::EngineOptions& opts,
                   Report* report) {
  RunOutcome out;
  tuffy::Timer timer;  // includes construction, so no work hides there
  tuffy::TuffyEngine engine(input.program, input.evidence, opts);
  auto r = engine.Run();
  out.wall_s = timer.ElapsedSeconds();
  if (!r.ok()) {
    report->Op(false, "Run: " + r.status().ToString());
    return out;
  }
  out.result = r.TakeValue();
  const EngineResult& res = out.result;
  const double cost =
      tuffy::MakeWholeProblem(res.grounding.atoms.num_atoms(),
                              res.grounding.clauses.clauses())
          .EvalCost(res.truth, opts.hard_weight);
  out.ok = cost == res.search_cost;
  report->Op(out.ok, "re-evaluated cost differs from search_cost");
  return out;
}

/// Bit-identical truth and cost.
bool SameAnswer(const EngineResult& a, const EngineResult& b) {
  return a.truth == b.truth && a.total_cost == b.total_cost;
}

bool SameStore(const tuffy::GroundingResult& a,
               const tuffy::GroundingResult& b) {
  if (a.atoms.num_atoms() != b.atoms.num_atoms() ||
      a.clauses.num_clauses() != b.clauses.num_clauses() ||
      a.fixed_cost != b.fixed_cost) {
    return false;
  }
  for (tuffy::AtomId i = 0; i < a.atoms.num_atoms(); ++i) {
    if (!(a.atoms.atom(i) == b.atoms.atom(i))) return false;
  }
  for (size_t i = 0; i < a.clauses.num_clauses(); ++i) {
    const tuffy::GroundClause& x = a.clauses.clauses()[i];
    const tuffy::GroundClause& y = b.clauses.clauses()[i];
    if (x.lits != y.lits || x.weight != y.weight || x.hard != y.hard) {
      return false;
    }
  }
  return true;
}

/// Sums the root operator of every rule's ANALYZE block (inclusive time
/// of the rule's binding query) and the rows of every operator line.
void ParseAnalyze(const std::string& explain, double* exec_s, double* rows) {
  *exec_s = 0.0;
  *rows = 0.0;
  bool root_next = false;
  size_t pos = 0;
  while (pos < explain.size()) {
    size_t end = explain.find('\n', pos);
    if (end == std::string::npos) end = explain.size();
    const std::string line = explain.substr(pos, end - pos);
    pos = end + 1;
    if (line.rfind("-- analyze rule", 0) == 0) {
      root_next = true;
      continue;
    }
    const size_t r = line.find(": rows=");
    const size_t t = line.find(" time=");
    if (r == std::string::npos || t == std::string::npos) {
      root_next = false;
      continue;
    }
    *rows += std::strtod(line.c_str() + r + 7, nullptr);
    if (root_next) *exec_s += std::strtod(line.c_str() + t + 6, nullptr) / 1e3;
    root_next = false;
  }
}

void EndToEnd(const RunConfig& cfg, const Input& input, double parse_s,
              Report* report) {
  const tuffy::EngineOptions opts = BatchEngineOptions(cfg.workload);
  // Set-up ends with one cold Run, so setup_s is the time from the text
  // to the first answer; every measured Run must repeat that answer.
  const RunOutcome first = RunOnce(input, opts, report);
  report->Add("setup_s", parse_s + first.wall_s, "s");
  std::vector<double> walls;
  std::vector<double> costs;
  std::vector<double> rss_mb;  // per-Run peaks
  malloc_trim(0);  // return set-up's freed heap before measuring RSS
  tuffy::Timer phase;
  while (walls.size() < 3 || phase.ElapsedSeconds() < cfg.seconds) {
    ResetPeakRss();
    RunOutcome run = RunOnce(input, opts, report);
    rss_mb.push_back(PeakRssMb());
    if (!run.ok) {
      if (report->failed() > 3) break;
      continue;
    }
    walls.push_back(run.wall_s);
    costs.push_back(run.result.total_cost);
    report->Check(first.ok && SameAnswer(first.result, run.result),
                  "repeated Run gave a different truth or cost");
  }
  double run_s = 0.0;
  for (double w : walls) run_s += w;
  report->Add("peak_rss_mb", Median(rss_mb), "MB");
  report->Add("op_p50_ms", Median(walls) * 1e3, "ms");
  report->Add("op_p99_ms", Quantile(walls, 0.99) * 1e3, "ms");
  report->Add("ops_per_s", static_cast<double>(walls.size()) / run_s, "1/s");
  report->Add("map_cost", Median(costs), "cost");
  std::fprintf(stderr, "%s: %zu Runs, wall_s min %.4f median %.4f max %.4f\n",
               cfg.workload.c_str(), walls.size(), Quantile(walls, 0.0),
               Median(walls), Quantile(walls, 1.0));
}

}  // namespace

double BatchLayers(const RunConfig& cfg, const Input& input, double seconds,
                   Report* report) {
  const tuffy::EngineOptions plain = BatchEngineOptions(cfg.workload);
  tuffy::EngineOptions traced = plain;
  traced.optimizer.analyze = true;

  // Alternate untraced and traced Runs; the traced ones carry the
  // per-layer numbers, the pair gives the instrumentation overhead.
  std::vector<double> plain_walls, walls, ground_s, load_s, search_s;
  std::vector<double> exec_s, rows, other_s, exact_rejected, exact_s;
  EngineResult last;
  tuffy::Timer phase;
  while (walls.size() < 2 || phase.ElapsedSeconds() < seconds) {
    tuffy::SetMetricsEnabled(false);
    RunOutcome base = RunOnce(input, plain, report);
    tuffy::SetMetricsEnabled(true);
    const auto before = RegistryValues();
    RunOutcome run = RunOnce(input, traced, report);
    const auto after = RegistryValues();
    tuffy::SetMetricsEnabled(false);
    if (!base.ok || !run.ok) {
      if (report->failed() > 3) break;
      continue;
    }
    report->Check(SameAnswer(base.result, run.result),
                  "traced Run is not bit-identical to the untraced Run");
    const EngineResult& r = run.result;
    plain_walls.push_back(base.wall_s);
    walls.push_back(run.wall_s);
    ground_s.push_back(r.grounding_seconds);
    load_s.push_back(r.load_seconds);
    search_s.push_back(r.search_seconds);
    other_s.push_back(run.wall_s - r.grounding_seconds - r.load_seconds -
                      r.search_seconds);
    double e = 0.0, n = 0.0;
    ParseAnalyze(r.explain, &e, &n);
    exec_s.push_back(e);
    rows.push_back(n);
    exact_rejected.push_back(
        RegistryDelta(before, after, "search.exact.rejected"));
    exact_s.push_back(
        RegistryDelta(before, after, "search.exact.seconds.sum_seconds"));
    last = std::move(run.result);
  }
  const double wall = Median(walls);
  report->Add("exec.load_s", Median(load_s), "s");
  report->Add("exec.other_s", Median(other_s), "s");
  report->Add("exec.other_frac", Median(other_s) / wall, "ratio");
  report->Add("ra.exec_s", Median(exec_s), "s");
  report->Add("ra.rows", Median(rows), "count");
  report->Add("ra.rows_per_s", Median(rows) / Median(exec_s), "1/s");

  const tuffy::GroundingStats& gs = last.grounding.stats;
  const double clauses =
      static_cast<double>(last.grounding.clauses.num_clauses());
  report->Add("ground.s", Median(ground_s), "s");
  report->Add("ground.candidates", static_cast<double>(gs.candidates), "count");
  report->Add("ground.clauses", clauses, "count");
  report->Add("ground.clauses_per_candidate",
              gs.candidates > 0 ? clauses / static_cast<double>(gs.candidates)
                                : 0.0,
              "ratio");
  report->Add("ground.pruned_antijoin",
              static_cast<double>(gs.pruned_by_antijoin), "count");
  report->Add("ground.closure_iterations",
              static_cast<double>(gs.closure_iterations), "count");

  const double flips = static_cast<double>(last.flips);
  report->Add("infer.search_s", Median(search_s), "s");
  report->Add("infer.flips", flips, "count");
  report->Add("infer.flips_per_s", flips / Median(search_s), "1/s");
  report->Add("infer.flip_budget_used",
              flips / static_cast<double>(plain.total_flips), "ratio");
  report->Add("infer.exact_components",
              static_cast<double>(last.exact_components), "count");
  report->Add("infer.exact_rejected", Median(exact_rejected), "count");
  report->Add("infer.exact_s", Median(exact_s), "s");
  report->Add("infer.state_bytes", static_cast<double>(last.peak_search_bytes),
              "B");
  report->Add("infer.cost", last.total_cost, "cost");

  // ground: table loading on its own, and whole grounding at 1/2/4
  // threads (the stores must be bit-identical).
  std::vector<double> load_tables_s;
  for (int rep = 0; rep < 3; ++rep) {
    tuffy::Catalog catalog;
    tuffy::Timer t;
    tuffy::Status st =
        tuffy::LoadMlnTables(input.program, input.evidence, &catalog);
    load_tables_s.push_back(t.ElapsedSeconds());
    report->Op(st.ok(), "LoadMlnTables: " + st.ToString());
  }
  report->Add("ground.load_tables_s", Median(load_tables_s), "s");
  report->Add("ground.resolve_s",
              Median(ground_s) - Median(exec_s) - Median(load_tables_s), "s");

  tuffy::GroundingResult store;
  for (int threads : {1, 2, 4}) {
    tuffy::GroundingOptions gopts = plain.grounding;
    gopts.num_threads = threads;
    tuffy::BottomUpGrounder grounder(input.program, input.evidence, gopts,
                                     plain.optimizer);
    tuffy::Timer t;
    auto g = grounder.Ground();
    const double s = t.ElapsedSeconds();
    report->Op(g.ok(), "Ground: " + g.status().ToString());
    if (!g.ok()) continue;
    report->Add("ground.s.t" + std::to_string(threads), s, "s");
    if (threads == 1) {
      store = g.TakeValue();
    } else {
      report->Check(SameStore(store, g.value()),
                    "ground store differs across thread counts");
    }
  }

  // mrf: component detection over the grounded MRF.
  const size_t num_atoms = store.atoms.num_atoms();
  const std::vector<tuffy::GroundClause>& gclauses = store.clauses.clauses();
  std::vector<double> comp_s;
  tuffy::ComponentSet comps;
  for (int rep = 0; rep < 3; ++rep) {
    tuffy::Timer t;
    comps = tuffy::DetectComponents(num_atoms, gclauses);
    comp_s.push_back(t.ElapsedSeconds());
  }
  size_t max_atoms = 0;
  for (const auto& a : comps.atoms) max_atoms = std::max(max_atoms, a.size());
  report->Add("mrf.components_s", Median(comp_s), "s");
  report->Add("mrf.components", static_cast<double>(comps.num_components()),
              "count");
  report->Add("mrf.max_component_atoms", static_cast<double>(max_atoms),
              "count");

  // infer: component-aware search at 1/2/4 threads (truths must be
  // bit-identical).
  {
    std::vector<uint8_t> truth;
    for (int threads : {1, 2, 4}) {
      tuffy::ComponentSearchOptions copts;
      copts.total_flips = plain.total_flips;
      copts.rounds = plain.rounds;
      copts.num_threads = threads;
      copts.p_random = plain.p_random;
      copts.hard_weight = plain.hard_weight;
      copts.use_exact = plain.exact_fast_path;
      tuffy::ComponentSearchResult cr = tuffy::RunComponentWalkSat(
          num_atoms, gclauses, comps, copts, kEngineSeed);
      report->Op(true, "");
      report->Add("infer.flips_per_s.t" + std::to_string(threads),
                  cr.FlipsPerSecond(), "1/s");
      if (threads == 1) {
        truth = std::move(cr.truth);
      } else {
        report->Check(cr.truth == truth,
                      "search truth differs across thread counts");
      }
    }
  }
  return wall / Median(plain_walls) - 1.0;
}

int RunBatch(const RunConfig& cfg) {
  Report report;
  ParseTimes times;
  std::unique_ptr<Input> input = ParseInput(cfg.dir, &times);
  if (input == nullptr) return 1;
  tuffy::SetMetricsEnabled(false);
  EndToEnd(cfg, *input, Median(times.total_s), &report);
  report.Print();
  return 0;
}

}  // namespace perfbench
