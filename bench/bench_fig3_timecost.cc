// Figure 3: time-cost plots of Alchemy vs Tuffy on all four datasets.
// Each curve tracks the best solution cost found up to each moment; a
// curve begins when that system finishes grounding (the L-shapes of the
// paper: search converges quickly relative to grounding).
//
// Shape to reproduce: Tuffy's curves start far earlier (faster
// grounding) and drop to equal-or-lower cost; on the multi-component
// datasets (IE, RC) Tuffy's final cost is substantially lower.
//
// Output: "<series> <seconds> <cost>" rows, gnuplot-friendly.

#include "bench/bench_common.h"

using namespace tuffy;         // NOLINT
using namespace tuffy::bench;  // NOLINT

int main() {
  PrintHeader("Figure 3: time-cost, Alchemy vs Tuffy");
  const uint64_t kFlips = 3000000;
  for (const Dataset& ds : AllBenchDatasets()) {
    std::printf("\n# dataset %s\n", ds.name.c_str());

    EngineOptions alchemy;
    alchemy.grounding_mode = GroundingMode::kTopDown;
    alchemy.search_mode = SearchMode::kInMemory;
    alchemy.total_flips = kFlips;
    alchemy.timeout_seconds = 20.0;
    EngineResult ra = MustRun(ds, alchemy);
    PrintTrace(ds.name + "/Alchemy", ra.trace, ra.grounding_seconds,
               ra.grounding.fixed_cost);

    EngineOptions tuffy;
    tuffy.search_mode = SearchMode::kComponentAware;
    tuffy.total_flips = kFlips;
    tuffy.exact_fast_path = false;  // the paper's search curve, not exact
    tuffy.rounds = 16;
    tuffy.timeout_seconds = 20.0;
    EngineResult rt = MustRun(ds, tuffy);
    PrintTrace(ds.name + "/Tuffy", rt.trace, rt.grounding_seconds,
               rt.grounding.fixed_cost);

    std::printf("# %s summary: Alchemy ground %.2fs final %.1f | "
                "Tuffy ground %.2fs final %.1f\n",
                ds.name.c_str(), ra.grounding_seconds, ra.total_cost,
                rt.grounding_seconds, rt.total_cost);
  }
  return 0;
}
