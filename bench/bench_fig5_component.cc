// Figure 5: time-cost plots of Tuffy (component-aware) vs Tuffy-p
// (whole-MRF WalkSAT) vs Alchemy on the multi-component datasets IE, RC.
//
// Shape to reproduce: the component-aware curve drops below the
// whole-MRF curves and the gap persists as runtime grows -- the
// empirical face of Theorem 3.1.
//
// Also reports the exact-fast-path lesion (docs/INFERENCE_EXACT.md):
// the same component-aware run with the tractable solver on vs off,
// plus a fully tractable chain workload where every component is
// answered exactly. `--exact=0` / `--exact=1` restrict the lesion to
// one arm; the default runs both.

#include <cstring>

#include "bench/bench_common.h"
#include "infer/component_walksat.h"
#include "mrf/components.h"

using namespace tuffy;         // NOLINT
using namespace tuffy::bench;  // NOLINT

namespace {

// One engine-level lesion arm: component-aware search with the exact
// fast path on or off. No wall-clock timeout, so the flip budget alone
// determines the result and the two arms are comparable.
void RunEngineLesionArm(const Dataset& ds, bool exact_on) {
  EngineOptions opts;
  opts.search_mode = SearchMode::kComponentAware;
  opts.total_flips = 1000000;
  opts.rounds = 8;
  opts.exact_fast_path = exact_on;
  EngineResult r = MustRun(ds, opts);
  std::printf("# %s exact_%s: cost %.1f, exact components %zu/%zu, "
              "flips %llu, search %.3fs\n",
              ds.name.c_str(), exact_on ? "on " : "off", r.total_cost,
              r.exact_components, r.num_components,
              static_cast<unsigned long long>(r.flips), r.search_seconds);
  BenchJson row("fig5_exact_lesion");
  row.Str("dataset", ds.name)
      .Str("system", exact_on ? "exact_on" : "exact_off")
      .Num("cost", r.total_cost)
      .Int("exact_components", r.exact_components)
      .Int("components", r.num_components)
      .Int("flips", r.flips)
      .Num("search_seconds", r.search_seconds)
      .Emit();
}

// The per-component latency story needs a workload where every
// component is tractable: random forest-structured components from the
// exact-oracle generator. Same flip budget both arms; the exact arm
// answers each component in one linear-time pass instead.
void RunTractableLesionArm(bool exact_on) {
  TractableMrfParams params;
  params.num_components = 2048;
  params.max_atoms = 8;
  params.seed = 20260808;
  size_t num_atoms = 0;
  std::vector<GroundClause> clauses = MakeTractableMrf(params, &num_atoms);
  ComponentSet comps = DetectComponents(num_atoms, clauses);

  ComponentSearchOptions copts;
  copts.total_flips = 20000 * comps.num_components();
  copts.use_exact = exact_on;
  ComponentSearchResult r =
      RunComponentWalkSat(num_atoms, clauses, comps, copts, /*seed=*/1);
  double per_component_us = r.seconds * 1e6 / comps.num_components();
  std::printf("# tractable-chains exact_%s: cost %.3f, exact %zu/%zu, "
              "flips %llu, %.2f us/component\n",
              exact_on ? "on " : "off", r.cost, r.exact_components,
              comps.num_components(),
              static_cast<unsigned long long>(r.flips), per_component_us);
  BenchJson row("fig5_exact_lesion");
  row.Str("dataset", "tractable-chains")
      .Str("system", exact_on ? "exact_on" : "exact_off")
      .Num("cost", r.cost, 3)
      .Int("exact_components", r.exact_components)
      .Int("components", comps.num_components())
      .Int("flips", r.flips)
      .Num("search_seconds", r.seconds)
      .Num("per_component_us", per_component_us, 2)
      .Emit();
}

}  // namespace

int main(int argc, char** argv) {
  int exact_arm = -1;  // -1 = run both lesion arms
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--exact=0") == 0) exact_arm = 0;
    if (std::strcmp(argv[i], "--exact=1") == 0) exact_arm = 1;
  }
  PrintHeader("Figure 5: Tuffy vs Tuffy-p vs Alchemy (IE, RC)");
  Dataset ie = BenchIe();
  Dataset rc = BenchRc();
  const uint64_t kFlips = 4000000;
  for (const Dataset* dsp : {&ie, &rc}) {
    const Dataset& ds = *dsp;
    std::printf("\n# dataset %s\n", ds.name.c_str());

    EngineOptions alchemy;
    alchemy.grounding_mode = GroundingMode::kTopDown;
    alchemy.search_mode = SearchMode::kInMemory;
    alchemy.total_flips = kFlips;
    alchemy.timeout_seconds = 20.0;
    EngineResult ra = MustRun(ds, alchemy);
    PrintTrace(ds.name + "/Alchemy", ra.trace, ra.grounding_seconds,
               ra.grounding.fixed_cost);

    EngineOptions tp;
    tp.search_mode = SearchMode::kInMemory;
    tp.total_flips = kFlips;
    tp.timeout_seconds = 20.0;
    EngineResult rp = MustRun(ds, tp);
    PrintTrace(ds.name + "/Tuffy-p", rp.trace, rp.grounding_seconds,
               rp.grounding.fixed_cost);

    EngineOptions tuffy;
    tuffy.search_mode = SearchMode::kComponentAware;
    tuffy.total_flips = kFlips;
    tuffy.exact_fast_path = false;  // Theorem 3.1 is about WalkSAT
    tuffy.rounds = 16;
    tuffy.timeout_seconds = 20.0;
    EngineResult rt = MustRun(ds, tuffy);
    PrintTrace(ds.name + "/Tuffy", rt.trace, rt.grounding_seconds,
               rt.grounding.fixed_cost);

    std::printf("# %s summary: Alchemy %.1f | Tuffy-p %.1f | Tuffy %.1f\n",
                ds.name.c_str(), ra.total_cost, rp.total_cost,
                rt.total_cost);
  }

  PrintHeader("Exact-fast-path lesion (docs/INFERENCE_EXACT.md)");
  for (const Dataset* dsp : {&ie, &rc}) {
    if (exact_arm != 0) RunEngineLesionArm(*dsp, true);
    if (exact_arm != 1) RunEngineLesionArm(*dsp, false);
  }
  if (exact_arm != 0) RunTractableLesionArm(true);
  if (exact_arm != 1) RunTractableLesionArm(false);
  return 0;
}
