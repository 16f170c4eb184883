// perfbench: the repo benchmark's measuring program.
//
//   perfbench gen --workload W --seed N --dir D
//       Generates workload W's input from seed N and writes it as MLN
//       text (D/program.mln) and evidence text (D/evidence.db).
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//       Parses that text, measures for S seconds, checks the outputs,
//       and prints one JSON result line last on stdout.
//
// perfbench/run.py builds this program and runs both steps in separate
// processes, so the measured process only ever sees the text.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common.h"
#include "mln/io.h"
#include "mln/parser.h"
#include "workloads.h"

namespace perfbench {

bool IsWorkload(const std::string& name) {
  return name == kLp || name == kIe || name == kRc;
}

tuffy::Result<tuffy::Dataset> MakeWorkloadDataset(const std::string& workload,
                                                  uint64_t seed) {
  if (workload == kLp) {
    tuffy::LpParams p;
    p.num_professors = 10;
    p.num_students = 40;
    p.num_courses = 100;
    p.num_publications = 512000;
    p.seed = seed;
    return tuffy::MakeLpDataset(p);
  }
  if (workload == kIe) {
    tuffy::IeParams p;
    p.num_citations = 3000;
    p.positions_per_citation = 5;
    p.num_fields = 4;
    p.vocabulary = 120;
    p.num_token_rules = 250;
    p.seed = seed;
    return tuffy::MakeIeDataset(p);
  }
  // The serving seed draws the delta streams (serve.cc); the dataset is
  // fixed. A session's final cost is a function of the dataset alone, and
  // across 60-cluster RC datasets it varies by about 13%, more than any
  // regression bound could absorb.
  tuffy::RcParams p;
  p.num_clusters = 60;
  p.papers_per_cluster = 10;
  p.num_categories = 6;
  p.labeled_fraction = 0.5;
  p.seed = kRcDatasetSeed;
  return tuffy::MakeRcDataset(p);
}

uint64_t WorkloadFlips(const std::string& workload) {
  if (workload == kLp) return kLpFlips;
  if (workload == kIe) return kIeFlips;
  return kRcFlips;
}

std::string QueryPredicate(const std::string& workload) {
  if (workload == kLp) return "advisedBy";
  if (workload == kIe) return "infield";
  return "cat";
}

tuffy::EngineOptions BatchEngineOptions(const std::string& workload) {
  tuffy::EngineOptions o;
  o.grounding_mode = tuffy::GroundingMode::kBottomUp;
  o.grounding.lazy_closure = true;
  o.search_mode = tuffy::SearchMode::kComponentAware;
  o.num_threads = kBatchThreads;
  o.seed = kEngineSeed;
  o.total_flips = WorkloadFlips(workload);
  return o;
}

tuffy::SessionOptions ServeSessionOptions(const std::string& workload) {
  tuffy::SessionOptions o;
  o.total_flips = WorkloadFlips(workload);
  o.seed = kEngineSeed;
  return o;
}

namespace {

/// IE draws its token rules from the datagen RNG as well. Fixing the seed
/// of the dataset whose program text is written keeps the MLN program the
/// same across workload seeds, so only the evidence varies with the seed
/// (LP's and RC's programs are fixed text anyway).
constexpr uint64_t kIeProgramSeed = 2;

/// Evidence text, one atom per line, ordered by predicate and then by the
/// generator's constant ids, so the text is a pure function of the seed.
std::string EvidenceText(const tuffy::Dataset& ds) {
  using Entry = std::pair<tuffy::GroundAtom, bool>;
  std::vector<Entry> entries(ds.evidence.entries().begin(),
                             ds.evidence.entries().end());
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return std::tie(a.first.pred, a.first.args) <
                     std::tie(b.first.pred, b.first.args);
            });
  std::string out;
  for (const auto& [atom, truth] : entries) {
    if (!truth) out += '!';
    out += ds.program.predicate(atom.pred).name;
    out += '(';
    for (size_t i = 0; i < atom.args.size(); ++i) {
      if (i > 0) out += ", ";
      out += ds.program.symbols().SymbolName(atom.args[i]);
    }
    out += ")\n";
  }
  return out;
}

/// Parses the text back and checks it describes the same program: same
/// rules, same evidence count, same per-type domain sizes.
bool RoundTrips(const tuffy::Dataset& ds, const std::string& program_text,
                const std::string& evidence_text) {
  auto program = tuffy::ParseProgram(program_text);
  if (!program.ok()) {
    std::fprintf(stderr, "generated program does not parse: %s\n",
                 program.status().ToString().c_str());
    return false;
  }
  tuffy::MlnProgram parsed = program.TakeValue();
  tuffy::EvidenceDb evidence;
  tuffy::Status st = tuffy::ParseEvidence(evidence_text, &parsed, &evidence);
  if (!st.ok()) {
    std::fprintf(stderr, "generated evidence does not parse: %s\n",
                 st.ToString().c_str());
    return false;
  }
  if (parsed.ToString() != program_text ||
      evidence.num_evidence() != ds.evidence.num_evidence()) {
    std::fprintf(stderr, "generated text does not round-trip\n");
    return false;
  }
  // Constants the generator interned outside the evidence (category,
  // field, and position domains) must survive in the text. Rule
  // constants are exempt: IE's program text may come from another seed.
  std::set<tuffy::ConstantId> rule_constants;
  for (const tuffy::Clause& clause : ds.program.clauses()) {
    for (const tuffy::Literal& lit : clause.literals) {
      for (const tuffy::Term& t : lit.args) {
        if (!t.is_var) rule_constants.insert(t.id);
      }
    }
  }
  for (const tuffy::Predicate& pred : ds.program.predicates()) {
    for (const std::string& type : pred.arg_types) {
      for (tuffy::ConstantId c : ds.program.symbols().Domain(type)) {
        if (rule_constants.count(c) == 0 &&
            parsed.symbols().Find(ds.program.symbols().SymbolName(c)) < 0) {
          std::fprintf(stderr, "domain of %s lost a constant in the text\n",
                       type.c_str());
          return false;
        }
      }
    }
  }
  return true;
}

int Gen(const std::string& workload, uint64_t seed, const std::string& dir) {
  auto ds = MakeWorkloadDataset(workload, seed);
  if (!ds.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 ds.status().ToString().c_str());
    return 1;
  }
  std::string program_text = ds.value().program.ToString();
  if (workload == kIe) {
    auto program_ds = MakeWorkloadDataset(workload, kIeProgramSeed);
    if (!program_ds.ok()) return 1;
    program_text = program_ds.value().program.ToString();
  }
  const std::string evidence_text = EvidenceText(ds.value());
  if (!RoundTrips(ds.value(), program_text, evidence_text)) return 1;
  tuffy::Status st =
      tuffy::WriteStringToFile(dir + "/program.mln", program_text);
  if (st.ok()) st = tuffy::WriteStringToFile(dir + "/evidence.db", evidence_text);
  if (!st.ok()) {
    std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

/// The traced run: every layer on every workload. The workload's own
/// path runs for the run's seconds and gives obs.trace_overhead_frac;
/// the other path is a probe over the same input.
int RunTraced(const RunConfig& cfg) {
  Report report;
  ParseTimes times;
  std::unique_ptr<Input> input = ParseInput(cfg.dir, &times);
  if (input == nullptr) return 1;
  tuffy::SetMetricsEnabled(false);
  report.Add("mln.parse_s", Median(times.total_s), "s");
  report.Add("mln.evidence_rows_per_s",
             static_cast<double>(input->evidence.num_evidence()) /
                 Median(times.evidence_s),
             "1/s");
  const bool serving = cfg.workload == kRc;
  const double batch_overhead = BatchLayers(
      cfg, *input, serving ? kProbeSeconds : cfg.seconds, &report);
  const double serve_overhead =
      ServingLayers(cfg, *input, serving ? cfg.seconds : kProbeSeconds,
                    serving ? kServeDeltas : kProbeDeltas, &report);
  report.Add("obs.trace_overhead_frac",
             serving ? serve_overhead : batch_overhead, "ratio");
  report.Print();
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench gen --workload W --seed N --dir D\n"
               "       perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --dir D\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  RunConfig cfg;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--dir") {
      cfg.dir = value;
    } else {
      return Usage();
    }
  }
  if (!IsWorkload(cfg.workload) || cfg.dir.empty()) return Usage();
  if (mode == "gen") return Gen(cfg.workload, cfg.seed, cfg.dir);
  if (mode != "run" || cfg.seconds <= 0) return Usage();
  if (cfg.trace) return RunTraced(cfg);
  return cfg.workload == kRc ? RunServe(cfg) : RunBatch(cfg);
}
