// Scalable relational classification: the RC workload at a size where the
// paper's machinery matters. Shows the full hybrid pipeline (Section 3.2)
// plus component-aware search (Section 3.3), and contrasts it against the
// Alchemy-style baseline (top-down grounding + whole-MRF WalkSAT).
//
// Run:  ./build/examples/scalable_classification

#include <cstdio>

#include "datagen/datasets.h"
#include "exec/tuffy_engine.h"
#include "util/string_util.h"

using namespace tuffy;  // NOLINT: example brevity

namespace {

void Report(const char* name, const EngineResult& r) {
  std::printf(
      "%-22s ground %6.2fs  search %6.2fs  cost %8.1f  "
      "flips/s %9.0f  components %4zu  peak search RAM %s\n",
      name, r.grounding_seconds, r.search_seconds, r.total_cost,
      r.FlipsPerSecond(), r.num_components,
      FormatBytes(static_cast<int64_t>(r.peak_search_bytes)).c_str());
}

}  // namespace

int main() {
  RcParams params;
  params.num_clusters = 60;
  params.papers_per_cluster = 12;
  params.num_categories = 8;
  auto dataset = MakeRcDataset(params);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  Dataset ds = dataset.TakeValue();
  std::printf("RC instance: %d papers in %d clusters, %zu evidence tuples\n\n",
              params.num_clusters * params.papers_per_cluster,
              params.num_clusters, ds.evidence.num_evidence());

  const uint64_t kFlips = 2000000;

  // Alchemy-style baseline: top-down grounding, whole-MRF WalkSAT.
  EngineOptions alchemy;
  alchemy.grounding_mode = GroundingMode::kTopDown;
  alchemy.search_mode = SearchMode::kInMemory;
  alchemy.total_flips = kFlips;
  {
    TuffyEngine engine(ds.program, ds.evidence, alchemy);
    auto r = engine.Run();
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    Report("Alchemy (baseline)", r.value());
  }

  // Tuffy-p: bottom-up grounding, whole-MRF WalkSAT.
  EngineOptions tuffy_p;
  tuffy_p.search_mode = SearchMode::kInMemory;
  tuffy_p.total_flips = kFlips;
  {
    TuffyEngine engine(ds.program, ds.evidence, tuffy_p);
    auto r = engine.Run();
    if (!r.ok()) return 1;
    Report("Tuffy-p (no parts)", r.value());
  }

  // Full Tuffy: component-aware search, 8 threads.
  EngineOptions tuffy;
  tuffy.search_mode = SearchMode::kComponentAware;
  tuffy.total_flips = kFlips;
  tuffy.num_threads = 8;
  {
    TuffyEngine engine(ds.program, ds.evidence, tuffy);
    auto r = engine.Run();
    if (!r.ok()) return 1;
    Report("Tuffy (8 threads)", r.value());
  }

  // Full Tuffy under a tight memory budget (partition-aware search).
  EngineOptions budgeted = tuffy;
  budgeted.search_mode = SearchMode::kPartitionAware;
  budgeted.memory_budget_bytes = 64 * 1024;
  budgeted.rounds = 4;
  {
    TuffyEngine engine(ds.program, ds.evidence, budgeted);
    auto r = engine.Run();
    if (!r.ok()) return 1;
    Report("Tuffy (64KB budget)", r.value());
    std::printf("  -> %zu partitions under the budget\n",
                r.value().num_partitions);
  }
  return 0;
}
