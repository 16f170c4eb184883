// Entity resolution: deduplicating citation records with an MLN, the ER
// workload of the paper's evaluation (Section 4). Similarity evidence
// votes for sameBib pairs; a transitivity rule makes the MRF one dense
// component; a negative-weight prior keeps the matching sparse.
//
// The example also demonstrates the partitioning trade-off of Section
// 3.4: on a dense graph, aggressive partitioning cuts many clauses and
// Gauss-Seidel converges more slowly (Figure 6's ER panel).
//
// Run:  ./build/examples/entity_resolution

#include <cstdio>
#include <map>

#include "datagen/datasets.h"
#include "exec/tuffy_engine.h"
#include "util/string_util.h"
#include "util/union_find.h"

using namespace tuffy;  // NOLINT: example brevity

int main() {
  ErParams params;
  params.num_records = 24;
  params.num_entities = 6;
  params.noise = 0.02;
  auto dataset = MakeErDataset(params);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  Dataset ds = dataset.TakeValue();
  std::printf("ER instance: %d records of %d true entities, %zu evidence\n",
              params.num_records, params.num_entities,
              ds.evidence.num_evidence());

  EngineOptions options;
  options.total_flips = 300000;
  options.search_mode = SearchMode::kInMemory;  // one dense component
  TuffyEngine engine(ds.program, ds.evidence, options);
  auto result = engine.Run();
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  const EngineResult& r = result.value();
  std::printf("grounded %zu atoms / %zu clauses in %.3f s; MAP cost %.1f\n",
              r.grounding.atoms.num_atoms(),
              r.grounding.clauses.num_clauses(), r.grounding_seconds,
              r.total_cost);

  // Turn the sameBib MAP assignment into duplicate clusters.
  auto pairs = ExtractTrueAtoms(ds.program, r.grounding.atoms, r.truth,
                                "sameBib");
  if (!pairs.ok()) {
    std::fprintf(stderr, "%s\n", pairs.status().ToString().c_str());
    return 1;
  }
  UnionFind uf(ds.program.symbols().num_constants());
  for (const GroundAtom& a : pairs.value()) {
    uf.Union(static_cast<uint32_t>(a.args[0]),
             static_cast<uint32_t>(a.args[1]));
  }
  std::map<uint32_t, std::vector<std::string>> clusters;
  for (int rec = 0; rec < params.num_records; ++rec) {
    std::string name = "B" + std::to_string(rec);
    ConstantId id = ds.program.symbols().Find(name);
    if (id < 0) continue;
    clusters[uf.Find(static_cast<uint32_t>(id))].push_back(name);
  }
  std::printf("\nresolved %zu duplicate clusters "
              "(true entity count: %d):\n",
              clusters.size(), params.num_entities);
  int shown = 0;
  for (const auto& [root, members] : clusters) {
    if (members.size() < 2) continue;
    std::printf("  {");
    for (size_t i = 0; i < members.size(); ++i) {
      std::printf("%s%s", i ? ", " : "", members[i].c_str());
    }
    std::printf("}\n");
    if (++shown >= 8) break;
  }

  // Partitioning trade-off on a dense graph (Section 3.4 / Figure 6).
  std::printf("\npartitioning trade-off (dense graph):\n");
  for (uint64_t budget : {uint64_t{0}, uint64_t{4096}, uint64_t{1024}}) {
    EngineOptions popts = options;
    popts.search_mode = SearchMode::kPartitionAware;
    popts.memory_budget_bytes = budget;
    popts.total_flips = 100000;
    popts.rounds = 4;
    TuffyEngine pengine(ds.program, ds.evidence, popts);
    auto presult = pengine.Run();
    if (!presult.ok()) continue;
    std::printf("  budget %8s: %3zu partitions, peak RAM %8s, cost %.1f\n",
                budget == 0 ? "none" : FormatBytes(budget).c_str(),
                presult.value().num_partitions,
                FormatBytes(presult.value().peak_search_bytes).c_str(),
                presult.value().total_cost);
  }
  return 0;
}
