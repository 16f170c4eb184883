#ifndef TUFFY_BENCH_BENCH_COMMON_H_
#define TUFFY_BENCH_BENCH_COMMON_H_

// Shared workload scales and helpers for the experiment harness. Every
// bench binary regenerates one table or figure of the paper (see the
// `bench/` paragraph of README.md for the index). Scales are chosen so
// the full suite completes in minutes on a laptop while preserving the
// paper's qualitative shapes (who wins, by roughly what factor, where
// crossovers fall); absolute numbers are not expected to match the 2011
// testbed.

#include <stdlib.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "bench/bench_json.h"
#include "datagen/datasets.h"
#include "exec/tuffy_engine.h"
#include "infer/walksat.h"
#include "util/string_util.h"

namespace tuffy {
namespace bench {

inline Dataset BenchLp() {
  LpParams p;
  p.num_professors = 25;
  p.num_students = 150;
  p.num_courses = 60;
  p.num_publications = 700;
  auto r = MakeLpDataset(p);
  if (!r.ok()) {
    std::fprintf(stderr, "LP generation failed: %s\n",
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return r.TakeValue();
}

inline Dataset BenchIe() {
  IeParams p;
  p.num_citations = 900;
  p.positions_per_citation = 5;
  p.num_fields = 4;
  p.vocabulary = 120;
  p.num_token_rules = 250;
  auto r = MakeIeDataset(p);
  if (!r.ok()) {
    std::fprintf(stderr, "IE generation failed: %s\n",
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return r.TakeValue();
}

inline Dataset BenchRc() {
  RcParams p;
  p.num_clusters = 120;
  p.papers_per_cluster = 10;
  p.num_categories = 8;
  auto r = MakeRcDataset(p);
  if (!r.ok()) {
    std::fprintf(stderr, "RC generation failed: %s\n",
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return r.TakeValue();
}

inline Dataset BenchEr() {
  ErParams p;
  p.num_records = 48;
  p.num_entities = 12;
  p.noise = 0.02;
  auto r = MakeErDataset(p);
  if (!r.ok()) {
    std::fprintf(stderr, "ER generation failed: %s\n",
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return r.TakeValue();
}

/// Larger variants used by the grounding experiments (Tables 2 and 6),
/// where the relational join work must dominate the shared clause-
/// resolution cost for the top-down/bottom-up asymmetry to be visible.
inline Dataset GroundingScaleLp() {
  LpParams p;
  p.num_professors = 10;
  p.num_students = 40;
  p.num_courses = 100;
  p.num_publications = 12000;  // the publication self-join dominates
  auto r = MakeLpDataset(p);
  if (!r.ok()) std::exit(1);
  return r.TakeValue();
}

inline Dataset GroundingScaleRc() {
  RcParams p;
  p.num_clusters = 600;
  p.papers_per_cluster = 15;
  p.num_categories = 4;
  p.authors_per_cluster = 8;
  auto r = MakeRcDataset(p);
  if (!r.ok()) std::exit(1);
  return r.TakeValue();
}

/// The largest grounding workload in the harness: LP with the
/// publication relation scaled until the self-join dominates everything
/// else (the person universe stays fixed, so the candidate/clause side
/// is constant while the relational work grows). This is the dataset the
/// vectorized-executor speedup gate runs on — top-down grounding is far
/// too slow here, so only the bottom-up lesion uses it.
inline Dataset GroundingVecScaleLp() {
  LpParams p;
  p.num_professors = 10;
  p.num_students = 40;
  p.num_courses = 100;
  p.num_publications = 128000;
  auto r = MakeLpDataset(p);
  if (!r.ok()) std::exit(1);
  return r.TakeValue();
}

/// All four evaluation datasets, in the paper's order.
inline std::vector<Dataset> AllBenchDatasets() {
  std::vector<Dataset> out;
  out.push_back(BenchLp());
  out.push_back(BenchIe());
  out.push_back(BenchRc());
  out.push_back(BenchEr());
  return out;
}

inline EngineResult MustRun(const Dataset& ds, const EngineOptions& opts) {
  TuffyEngine engine(ds.program, ds.evidence, opts);
  auto r = engine.Run();
  if (!r.ok()) {
    std::fprintf(stderr, "%s: engine failed: %s\n", ds.name.c_str(),
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return r.TakeValue();
}

/// Prints a time-cost series in a gnuplot-friendly form:
///   <series> <seconds> <cost>
/// `offset` shifts the trace (e.g. by grounding time, matching the
/// paper's curves that begin when grounding completes).
inline void PrintTrace(const std::string& series,
                       const std::vector<TracePoint>& trace, double offset,
                       double fixed_cost) {
  for (const TracePoint& tp : trace) {
    std::printf("%-24s %10.3f %14.1f\n", series.c_str(),
                tp.seconds + offset, tp.cost + fixed_cost);
  }
}

/// Emits one machine-readable result line so the perf trajectory can be
/// tracked across PRs (grep for ^BENCH_JSON and parse the rest as JSON).
/// The common shape shared by the search benches; rows with extra fields
/// build a BenchJson (bench/bench_json.h) directly.
inline void PrintJsonLine(const char* bench, const std::string& dataset,
                          const char* system, double flips_per_sec,
                          double seconds, uint64_t flips, double cost) {
  BenchJson row(bench);
  row.Str("dataset", dataset)
      .Str("system", system)
      .Num("flips_per_sec", flips_per_sec, 1)
      .Num("seconds", seconds)
      .Int("flips", flips)
      .Num("cost", cost)
      .Emit();
}

/// A fresh directory `/tmp/<prefix>_XXXXXX` for a bench's durable
/// state, removed with everything under it when destroyed. ok() is
/// false when it could not be created.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& prefix)
      : path_("/tmp/" + prefix + "_XXXXXX") {
    ok_ = ::mkdtemp(path_.data()) != nullptr;
  }
  ~ScratchDir() {
    std::error_code ignored;
    if (ok_) std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  bool ok() const { return ok_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  bool ok_ = false;
};

inline void PrintHeader(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

}  // namespace bench
}  // namespace tuffy

#endif  // TUFFY_BENCH_BENCH_COMMON_H_
