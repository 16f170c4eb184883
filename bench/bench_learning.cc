// Weight-learning throughput: epochs/s and count-statistics rates for
// both learners on the RC workload.

#include "bench/bench_common.h"
#include "learn/learner.h"

namespace tuffy {
namespace bench {
namespace {

Dataset LearnScaleRc() {
  RcParams p;
  p.num_clusters = 30;
  p.papers_per_cluster = 10;
  p.num_categories = 5;
  p.labeled_fraction = 0.6;
  auto r = MakeRcDataset(p);
  if (!r.ok()) {
    std::fprintf(stderr, "RC generation failed: %s\n",
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return r.TakeValue();
}

void PrintLearnJson(const char* system, const LearnResult& lr,
                    double counts_per_sec) {
  BenchJson row("learning");
  row.Str("dataset", "RC")
      .Str("system", system)
      .Int("epochs", static_cast<uint64_t>(lr.epochs))
      .Num("seconds", lr.seconds)
      .Num("epochs_per_sec", lr.seconds > 0 ? lr.epochs / lr.seconds : 0.0,
           2)
      .Num("counts_per_sec", counts_per_sec, 1)
      .Int("ground_clauses", lr.num_ground_clauses)
      .Emit();
}

void RunLearner(const Dataset& ds, LearnAlgorithm algo, const char* system) {
  LearnOptions lopts;
  lopts.algorithm = algo;
  lopts.query_predicates = {"cat"};
  lopts.max_epochs = 20;
  lopts.convergence_tol = 0.0;  // fixed-epoch throughput measurement
  lopts.map_flips = 100000;
  lopts.mcsat_samples = 60;
  lopts.mcsat_burn_in = 6;
  EngineOptions eopts;
  TuffyEngine engine(ds.program, ds.evidence, eopts);
  auto result = engine.Learn(lopts);
  if (!result.ok()) {
    std::fprintf(stderr, "learning failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  const LearnResult& lr = result.value();
  // Clause-truth evaluations feeding the count statistics: one recount
  // of the MAP state per epoch (perceptron), one sweep per MC-SAT round
  // (Newton).
  const double sweeps =
      algo == LearnAlgorithm::kVotedPerceptron
          ? static_cast<double>(lr.epochs)
          : static_cast<double>(lr.epochs) *
                (lopts.mcsat_samples + lopts.mcsat_burn_in);
  const double counts_per_sec =
      lr.seconds > 0
          ? sweeps * static_cast<double>(lr.num_ground_clauses) / lr.seconds
          : 0.0;
  PrintLearnJson(system, lr, counts_per_sec);
}

}  // namespace
}  // namespace bench
}  // namespace tuffy

int main() {
  using namespace tuffy;
  using namespace tuffy::bench;
  PrintHeader("Weight learning throughput (RC)");
  Dataset ds = LearnScaleRc();
  RunLearner(ds, LearnAlgorithm::kVotedPerceptron, "voted_perceptron");
  RunLearner(ds, LearnAlgorithm::kDiagonalNewton, "diagonal_newton");
  return 0;
}
