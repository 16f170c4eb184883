// Table 4: space efficiency of Alchemy vs Tuffy-p (no partitioning).
//
// Paper values:        LP      IE      RC      ER
//   clause table       5.2MB   0.6MB   4.8MB   164MB
//   Alchemy RAM        411MB   206MB   2.8GB   3.5GB
//   Tuffy-p RAM        9MB     8MB     19MB    184MB
//
// Shape to reproduce: Alchemy's purely in-memory architecture pays for
// the peak *grounding* working set (which dwarfs the final clause table,
// e.g. 2.8GB to produce 4.8MB on RC), while Tuffy grounds in the RDBMS
// and only needs RAM for the loaded clauses plus search state.
//
// Every term is a field of the Run that measured it: the grounding
// working set is GroundingStats::working_set_bytes, the clause table is
// EngineResult::clause_table_bytes, and the search state is the measured
// EngineResult::peak_search_bytes. One BENCH_JSON row per dataset.

#include "bench/bench_common.h"

using namespace tuffy;         // NOLINT
using namespace tuffy::bench;  // NOLINT

int main() {
  PrintHeader("Table 4: space efficiency (peak bytes)");
  std::printf("%-10s %14s %14s %14s %8s\n", "dataset", "clause_table",
              "Alchemy_RAM", "TuffyP_RAM", "ratio");
  for (const Dataset& ds : AllBenchDatasets()) {
    // Alchemy: top-down grounding and search share one address space;
    // its footprint is the grounding working set + clause table + search.
    EngineOptions aopts;
    aopts.grounding_mode = GroundingMode::kTopDown;
    aopts.search_mode = SearchMode::kInMemory;
    aopts.total_flips = 50000;
    EngineResult ar = MustRun(ds, aopts);
    const uint64_t grounding_bytes = ar.grounding.stats.working_set_bytes;
    const uint64_t alchemy_ram =
        grounding_bytes + ar.clause_table_bytes + ar.peak_search_bytes;

    // Tuffy-p: grounding state lives in the RDBMS; RAM = loaded clause
    // table + in-memory search state.
    EngineOptions topts;
    topts.search_mode = SearchMode::kInMemory;
    topts.total_flips = 50000;
    EngineResult tr = MustRun(ds, topts);
    const uint64_t tuffy_ram = tr.clause_table_bytes + tr.peak_search_bytes;
    const double ratio =
        static_cast<double>(alchemy_ram) / static_cast<double>(tuffy_ram);

    std::printf("%-10s %14s %14s %14s %7.1fx\n", ds.name.c_str(),
                FormatBytes(static_cast<int64_t>(tr.clause_table_bytes)).c_str(),
                FormatBytes(static_cast<int64_t>(alchemy_ram)).c_str(),
                FormatBytes(static_cast<int64_t>(tuffy_ram)).c_str(), ratio);
    BenchJson("table4_memory")
        .Str("dataset", ds.name)
        .Int("clause_table_bytes", tr.clause_table_bytes)
        .Int("alchemy_grounding_bytes", grounding_bytes)
        .Int("alchemy_search_bytes", ar.peak_search_bytes)
        .Int("tuffyp_search_bytes", tr.peak_search_bytes)
        .Int("alchemy_ram_bytes", alchemy_ram)
        .Int("tuffyp_ram_bytes", tuffy_ram)
        .Num("ratio", ratio)
        .Emit();
  }
  std::printf(
      "\nShape check vs paper Table 4: the grounding working set (candidate\n"
      "groundings held before the lazy closure prunes them) exceeds the\n"
      "final clause table by a wide margin, so the in-memory baseline\n"
      "needs several times more RAM than the hybrid architecture.\n");
  return 0;
}
