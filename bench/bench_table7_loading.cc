// Table 7: effect of batch data loading and parallelism (Section 3.3).
//
// Paper values (execution seconds):   IE    RC
//   Tuffy-batch (one comp at a time)  448   133
//   Tuffy (FFD batch loading)         117   77
//   Tuffy+parallelism (8 cores)       28    42
//
// Shape to reproduce: loading components one by one from the RDBMS
// re-reads shared pages and dominates runtime; FFD batch loading
// amortizes the I/O; adding threads then cuts the search time by
// roughly the core count.

#include "bench/bench_common.h"

using namespace tuffy;         // NOLINT
using namespace tuffy::bench;  // NOLINT

namespace {

struct ConfigResult {
  double load;
  double search;
};

ConfigResult RunConfig(const Dataset& ds, bool batch, int threads) {
  EngineOptions opts;
  opts.search_mode = SearchMode::kComponentAware;
  opts.total_flips = 500000;
  opts.exact_fast_path = false;  // threads divide WalkSAT time, not exact
  opts.rounds = 1;
  opts.num_threads = threads;
  opts.batch_loading = batch;
  opts.simulate_loading_io = true;
  // Tight buffer and realistic page latency: loading components one at a
  // time re-fetches the shared pages (clauses of different components
  // interleave on disk), which is the effect Table 7 measures.
  opts.loading_io_latency_us = 100;
  opts.loading_buffer_frames = 8;
  EngineResult r = MustRun(ds, opts);
  return ConfigResult{r.load_seconds, r.search_seconds};
}

}  // namespace

int main() {
  PrintHeader("Table 7: batch loading and parallelism (seconds)");
  std::printf("%-26s %28s %28s\n", "", "IE (load/search/total)",
              "RC (load/search/total)");
  Dataset ie = BenchIe();
  Dataset rc = BenchRc();

  auto row = [&](const char* label, bool batch, int threads) {
    std::printf("%-26s", label);
    for (const Dataset* ds : {&ie, &rc}) {
      ConfigResult r = RunConfig(*ds, batch, threads);
      std::printf(" %9.2f/%8.2f/%8.2f", r.load, r.search, r.load + r.search);
      std::fflush(stdout);
    }
    std::printf("\n");
  };
  row("Tuffy-batch (per-comp)", /*batch=*/false, 1);
  row("Tuffy (FFD batches)", /*batch=*/true, 1);
  row("Tuffy+parallelism (8)", /*batch=*/true, 8);

  std::printf(
      "\nShape check vs paper Table 7: per-component loading pays repeated\n"
      "page reads (components share pages in the clause warehouse); batch\n"
      "loading amortizes them; threads then divide the search time.\n");
  return 0;
}
