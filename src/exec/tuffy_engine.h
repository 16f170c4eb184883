#ifndef TUFFY_EXEC_TUFFY_ENGINE_H_
#define TUFFY_EXEC_TUFFY_ENGINE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ground/grounding.h"
#include "infer/walksat.h"
#include "learn/learn_options.h"
#include "learn/learner.h"
#include "mln/model.h"
#include "ra/optimizer.h"
#include "serve/inference_session.h"
#include "util/result.h"

namespace tuffy {

/// Which grounding strategy to use (Section 3.1 vs the Alchemy baseline).
enum class GroundingMode { kBottomUp, kTopDown };

/// Which search architecture to use.
enum class SearchMode {
  /// Whole-MRF in-memory WalkSAT: Tuffy-p, and also the search phase of
  /// the Alchemy baseline.
  kInMemory,
  /// Component detection + weighted round-robin per-component WalkSAT
  /// with per-component best tracking (Section 3.3): full Tuffy.
  kComponentAware,
  /// Algorithm 3 partitioning bounded by the memory budget + Gauss-
  /// Seidel partition-aware search (Section 3.4).
  kPartitionAware,
  /// RDBMS-resident WalkSAT: Tuffy-mm (Appendix B.2).
  kDisk,
};

/// Which inference task to run (Section 2.2 / Appendix A.5). kMarginal
/// always solves per component (search_mode selects kMap's search).
enum class InferenceTask { kMap, kMarginal };

struct EngineOptions {
  GroundingMode grounding_mode = GroundingMode::kBottomUp;
  InferenceTask task = InferenceTask::kMap;
  /// MC-SAT rounds for marginal inference.
  int mcsat_samples = 500;
  int mcsat_burn_in = 50;
  GroundingOptions grounding;
  OptimizerOptions optimizer;

  SearchMode search_mode = SearchMode::kComponentAware;
  uint64_t total_flips = 1000000;
  double p_random = 0.5;
  double hard_weight = 1e6;
  double timeout_seconds = std::numeric_limits<double>::infinity();
  uint64_t seed = 42;
  /// Rounds for round-robin scheduling / Gauss-Seidel sweeps.
  int rounds = 8;
  int num_threads = 1;

  /// Route tractable components (src/infer/exact) to the exact
  /// linear-time solver instead of WalkSAT / MC-SAT. Lesion toggle:
  /// false reproduces pure-sampler behavior everywhere.
  bool exact_fast_path = true;

  /// Memory budget in bytes for search state. Bounds the partition size
  /// (kPartitionAware) and the FFD batch capacity (kComponentAware).
  /// 0 = unlimited.
  uint64_t memory_budget_bytes = 0;

  /// If true (default), components are FFD-packed into memory-budget
  /// batches and each batch is loaded from the clause warehouse with one
  /// bulk read; if false, components load one by one (Table 7 baseline).
  bool batch_loading = true;
  /// If true, clause loading goes through the disk-backed warehouse with
  /// this per-page latency; if false, loading is from memory (fast path
  /// for tests).
  bool simulate_loading_io = false;
  uint32_t loading_io_latency_us = 20;
  size_t loading_buffer_frames = 64;

  /// Tuffy-mm knobs.
  size_t disk_buffer_frames = 64;
  uint32_t disk_io_latency_us = 20;

  /// Serving durability (OpenSession / RecoverSession only; batch runs
  /// ignore these). See SessionOptions and docs/DURABILITY.md.
  std::string wal_dir;
  uint32_t snapshot_every = 0;
  bool wal_fsync = true;
};

/// The session knobs an engine's options imply: search budgets, seed,
/// threads, grounding and optimizer settings, MC-SAT budgets (marginals
/// are tracked when task == kMarginal), and durability. OpenSession and
/// RecoverSession use it, and so does every front end that opens
/// sessions on the engine's behalf (tuffy_cli -serve and -follow), so a
/// session means the same thing however it is reached.
SessionOptions TranslateSessionOptions(const EngineOptions& options);

/// Validates the engine knobs up front (negative sampling budgets, bad
/// probabilities, non-positive hard weight, ...) so a misconfiguration
/// fails with a Status instead of silently misbehaving mid-run.
Status ValidateEngineOptions(const EngineOptions& options);

struct EngineResult {
  GroundingResult grounding;
  /// Best truth assignment over the ground atoms (MAP task).
  std::vector<uint8_t> truth;
  /// Estimated P(atom = true) per atom (marginal task only).
  std::vector<double> marginals;
  /// Cost of `truth` over the ground clauses (hard violations charged at
  /// options.hard_weight).
  double search_cost = 0.0;
  /// search_cost + the grounding-time fixed cost.
  double total_cost = 0.0;
  double grounding_seconds = 0.0;
  double load_seconds = 0.0;
  double search_seconds = 0.0;
  uint64_t flips = 0;
  size_t num_components = 0;
  size_t num_partitions = 0;
  /// Components answered by the exact solver (kComponentAware search
  /// and the marginal task; zero when exact_fast_path is off).
  size_t exact_components = 0;
  /// Best-cost-so-far samples over the search (times relative to search
  /// start).
  std::vector<TracePoint> trace;
  /// Clause-table footprint (paper Table 4 row 1).
  size_t clause_table_bytes = 0;
  /// Peak in-memory search state (paper Table 4/5 RAM rows).
  size_t peak_search_bytes = 0;
  /// Per-rule EXPLAIN of the grounding queries (bottom-up mode only;
  /// includes per-operator ANALYZE lines when options.optimizer.analyze
  /// is set). Printed by `tuffy_cli -explain`.
  std::string explain;

  double FlipsPerSecond() const {
    return search_seconds > 0 ? static_cast<double>(flips) / search_seconds
                              : 0.0;
  }
};

/// End-to-end MLN MAP inference engine: grounds the program (bottom-up in
/// the relational engine, or top-down as the Alchemy baseline), detects /
/// partitions MRF components, and runs the selected search architecture.
class TuffyEngine {
 public:
  TuffyEngine(const MlnProgram& program, const EvidenceDb& evidence,
              EngineOptions options)
      : program_(program), evidence_(evidence), options_(options) {}

  Result<EngineResult> Run();

  /// Weight learning: splits this engine's evidence into conditioning
  /// evidence and labels (per options.query_predicates), grounds the
  /// program exhaustively against the evidence side (lazy closure off —
  /// pruned clauses would bias the satisfied-grounding counts), and runs
  /// the gradient learner. The engine's own program/evidence are not
  /// modified; apply LearnResult::weights with
  /// MlnProgram::SetClauseWeight to run inference with learned weights.
  Result<LearnResult> Learn(const LearnOptions& options);

  /// Opens a long-lived serving session over this engine's program and
  /// current evidence: grounds once (exhaustively — see InferenceSession)
  /// and cold-starts the search, after which evidence deltas are served
  /// incrementally via InferenceSession::ApplyDelta. The engine's search
  /// knobs (flips, p_random, hard_weight, threads, seed, MC-SAT budgets
  /// when task == kMarginal) carry over. The program must outlive the
  /// returned session; the engine itself need not.
  Result<std::unique_ptr<InferenceSession>> OpenSession() const;

  /// Recovers a crashed durable session from options.wal_dir instead of
  /// grounding from evidence (which is ignored — the WAL is the evidence
  /// of record). Same knob translation as OpenSession; see
  /// InferenceSession::Recover.
  Result<std::unique_ptr<InferenceSession>> RecoverSession(
      RecoveryStats* stats = nullptr) const;

 private:
  Status RunSearch(EngineResult* result);

  const MlnProgram& program_;
  const EvidenceDb& evidence_;
  EngineOptions options_;
};

/// Extracts the atoms of `predicate_name` that are true in `truth`,
/// i.e. the answer to the MAP query for that relation.
Result<std::vector<GroundAtom>> ExtractTrueAtoms(
    const MlnProgram& program, const AtomStore& atoms,
    const std::vector<uint8_t>& truth, const std::string& predicate_name);

}  // namespace tuffy

#endif  // TUFFY_EXEC_TUFFY_ENGINE_H_
