#include "exec/tuffy_engine.h"

#include <algorithm>
#include <cmath>

#include "exec/clause_warehouse.h"
#include "ground/bottom_up_grounder.h"
#include "ground/top_down_grounder.h"
#include "infer/component_walksat.h"
#include "infer/disk_walksat.h"
#include "infer/gauss_seidel.h"
#include "mrf/bin_packing.h"
#include "mrf/components.h"
#include "mrf/partitioner.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace tuffy {

namespace {
/// Estimated bytes of in-memory search state per size-metric unit (an
/// atom or a literal). It turns memory_budget_bytes into the FFD batch
/// capacity and the partition bound β, and prices a batch or a partition
/// in peak_search_bytes. The estimate comes from the flat CSR layout: a
/// literal costs 4B in the arena's lit_data plus a 16B occurrence entry;
/// an atom costs a truth byte, an 8B cached flip delta, and a 4B
/// occurrence offset; per-clause overhead (arena offset + weight +
/// abs_weight + flags, ClauseState, violated bookkeeping ≈ 39B) is
/// amortized over the clause's literals. It is an estimate, not a bound.
/// On Table 4's datasets the measured whole-MRF state
/// (WalkSatResult::state_bytes, taken when the search ends) exceeds it by
/// 26% on LP (237,348,082 B measured vs 187,936,000 B estimated) and by
/// 11% on RC (509,100 vs 456,640 B); it falls 8% under on IE (2,526,019
/// vs 2,760,480 B) and 10% under on ER (11,732,996 vs 13,088,640 B). So
/// a budget can under-provision.
constexpr uint64_t kBytesPerSizeUnit = 40;
}  // namespace

Status ValidateEngineOptions(const EngineOptions& options) {
  if (options.mcsat_samples <= 0) {
    return Status::InvalidArgument(StrFormat(
        "mcsat_samples must be positive, got %d", options.mcsat_samples));
  }
  if (options.mcsat_burn_in < 0) {
    return Status::InvalidArgument(StrFormat(
        "mcsat_burn_in must be non-negative, got %d", options.mcsat_burn_in));
  }
  if (options.p_random < 0.0 || options.p_random > 1.0) {
    return Status::InvalidArgument(
        StrFormat("p_random must be in [0, 1], got %g", options.p_random));
  }
  if (!(options.hard_weight > 0.0)) {
    return Status::InvalidArgument(StrFormat(
        "hard_weight must be positive, got %g", options.hard_weight));
  }
  if (options.rounds <= 0) {
    return Status::InvalidArgument(
        StrFormat("rounds must be positive, got %d", options.rounds));
  }
  if (options.num_threads <= 0 || options.num_threads > kMaxWorkerThreads) {
    return Status::InvalidArgument(
        StrFormat("num_threads must be in [1, %d], got %d", kMaxWorkerThreads,
                  options.num_threads));
  }
  if (std::isnan(options.timeout_seconds) || options.timeout_seconds < 0.0) {
    return Status::InvalidArgument(StrFormat(
        "timeout_seconds must be non-negative, got %g",
        options.timeout_seconds));
  }
  return Status::OK();
}

Status TuffyEngine::RunSearch(EngineResult* result) {
  const std::vector<GroundClause>& clauses =
      result->grounding.clauses.clauses();
  const size_t num_atoms = result->grounding.atoms.num_atoms();
  Timer timer;

  if (num_atoms == 0) {
    result->truth.clear();
    result->search_cost = 0.0;
    return Status::OK();
  }

  // The marginal task (Appendix A.5) always runs per component: exact
  // marginals where a component is tractable, MC-SAT elsewhere, no MAP
  // search.
  const bool marginal = options_.task == InferenceTask::kMarginal;
  switch (marginal ? SearchMode::kComponentAware : options_.search_mode) {
    case SearchMode::kInMemory: {
      Problem whole = MakeWholeProblem(num_atoms, clauses);
      WalkSatOptions wopts;
      wopts.max_flips = options_.total_flips;
      wopts.p_random = options_.p_random;
      wopts.hard_weight = options_.hard_weight;
      wopts.timeout_seconds = options_.timeout_seconds;
      wopts.trace_every_flips =
          std::max<uint64_t>(1, options_.total_flips / 200);
      Rng rng(options_.seed);
      WalkSat search(&whole, wopts, &rng);
      WalkSatResult wr = search.Run();
      result->peak_search_bytes = wr.state_bytes;
      result->truth = std::move(wr.best_truth);
      result->flips = wr.flips;
      result->trace = std::move(wr.trace);
      break;
    }

    case SearchMode::kComponentAware: {
      ComponentSet components = DetectComponents(num_atoms, clauses);
      result->num_components = components.num_components();

      // Batch the components under the memory budget (FFD), or give each
      // component its own batch when batch loading is disabled.
      std::vector<uint64_t> sizes(components.num_components());
      uint64_t total_size = 0;
      for (size_t i = 0; i < components.num_components(); ++i) {
        sizes[i] = ComponentSizeMetric(components, i, clauses);
        total_size += sizes[i];
      }
      uint64_t capacity_units =
          options_.memory_budget_bytes == 0
              ? std::max<uint64_t>(total_size, 1)
              : std::max<uint64_t>(1, options_.memory_budget_bytes /
                                          kBytesPerSizeUnit);
      std::vector<std::vector<size_t>> batches;
      if (options_.batch_loading) {
        BinPacking packing = FirstFitDecreasing(sizes, capacity_units);
        batches.resize(packing.num_bins);
        for (size_t i = 0; i < sizes.size(); ++i) {
          batches[packing.bin_of_item[i]].push_back(i);
        }
      } else {
        for (size_t i = 0; i < sizes.size(); ++i) batches.push_back({i});
      }

      std::unique_ptr<ClauseWarehouse> warehouse;
      if (options_.simulate_loading_io) {
        TUFFY_ASSIGN_OR_RETURN(
            warehouse,
            ClauseWarehouse::Create(clauses, options_.loading_buffer_frames,
                                    options_.loading_io_latency_us));
      }

      // One pool and one search clock for the whole Run; a batch only
      // decides which components are resident. A Run is epoch 0, like a
      // serving session's cold start.
      ComponentSolverOptions sopts;
      sopts.total_flips = options_.total_flips;
      sopts.mrf_atoms = num_atoms;
      sopts.seed = options_.seed;
      sopts.p_random = options_.p_random;
      sopts.hard_weight = options_.hard_weight;
      sopts.use_exact = options_.exact_fast_path;
      sopts.marginals = marginal;
      sopts.mcsat_samples = options_.mcsat_samples;
      sopts.mcsat_burn_in = options_.mcsat_burn_in;
      std::unique_ptr<ThreadPool> pool = MakeWorkerPool(options_.num_threads);
      ComponentSearchResult cr;
      cr.truth.assign(num_atoms, 0);
      if (marginal) cr.marginals.assign(num_atoms, 0.0);
      uint64_t batch_peak = 0;
      for (const std::vector<size_t>& batch : batches) {
        if (batch.empty()) continue;
        // Make the batch's components resident. The solvers read the
        // component set in place; through the warehouse, the batch's
        // clauses are loaded and its components' clause ids renumbered
        // into the loaded vector, otherwise they read the store's
        // clauses by their original ids.
        Timer load_timer;
        uint64_t batch_size = 0;
        for (size_t comp : batch) batch_size += sizes[comp];
        std::vector<std::vector<uint32_t>> loaded_ids;
        std::vector<GroundClause> loaded;
        if (warehouse != nullptr) {
          std::vector<uint32_t> ids;
          for (size_t comp : batch) {
            std::vector<uint32_t>& local = loaded_ids.emplace_back();
            for (uint32_t ci : components.clauses[comp]) {
              local.push_back(static_cast<uint32_t>(ids.size()));
              ids.push_back(ci);
            }
          }
          TUFFY_ASSIGN_OR_RETURN(loaded, warehouse->Load(ids));
        }
        result->load_seconds += load_timer.ElapsedSeconds();

        batch_peak = std::max(batch_peak, batch_size * kBytesPerSizeUnit);
        SolveComponents(sopts, marginal ? 0 : options_.rounds,
                        options_.timeout_seconds,
                        warehouse != nullptr ? loaded : clauses, components,
                        batch, warehouse != nullptr ? &loaded_ids : nullptr,
                        pool.get(), timer, &cr);
      }
      // The marginal task's MAP-style fields get a thresholded state.
      for (size_t a = 0; a < cr.marginals.size(); ++a) {
        cr.truth[a] = cr.marginals[a] >= 0.5 ? 1 : 0;
      }
      result->truth = std::move(cr.truth);
      result->marginals = std::move(cr.marginals);
      result->flips = cr.flips;
      result->exact_components = cr.exact_components;
      result->trace = std::move(cr.trace);
      result->peak_search_bytes =
          std::max<uint64_t>(batch_peak, cr.state_bytes);
      break;
    }

    case SearchMode::kPartitionAware: {
      uint64_t beta = options_.memory_budget_bytes == 0
                          ? UINT64_MAX
                          : std::max<uint64_t>(
                                1, options_.memory_budget_bytes /
                                       kBytesPerSizeUnit);
      PartitionResult partitions = PartitionMrf(num_atoms, clauses, beta);
      result->num_partitions = partitions.num_partitions();
      result->num_components =
          DetectComponents(num_atoms, clauses).num_components();
      uint64_t max_part = 0;
      for (uint64_t s : partitions.sizes) max_part = std::max(max_part, s);
      result->peak_search_bytes = max_part * kBytesPerSizeUnit;

      GaussSeidelOptions gopts;
      gopts.sweeps = options_.rounds;
      gopts.flips_per_partition = std::max<uint64_t>(
          1, options_.total_flips /
                 std::max<uint64_t>(
                     1, static_cast<uint64_t>(options_.rounds) *
                            partitions.num_partitions()));
      gopts.p_random = options_.p_random;
      gopts.hard_weight = options_.hard_weight;
      gopts.timeout_seconds = options_.timeout_seconds;
      GaussSeidelResult gr = RunGaussSeidel(num_atoms, clauses, partitions,
                                            gopts, options_.seed);
      result->truth = std::move(gr.truth);
      result->flips = gr.flips;
      result->trace = std::move(gr.trace);
      break;
    }

    case SearchMode::kDisk: {
      Problem whole = MakeWholeProblem(num_atoms, clauses);
      DiskWalkSatOptions dopts;
      dopts.max_flips = options_.total_flips;
      dopts.p_random = options_.p_random;
      dopts.hard_weight = options_.hard_weight;
      dopts.timeout_seconds = options_.timeout_seconds;
      dopts.buffer_frames = options_.disk_buffer_frames;
      dopts.io_latency_us = options_.disk_io_latency_us;
      dopts.trace_every_flips = 1;
      TUFFY_ASSIGN_OR_RETURN(std::unique_ptr<DiskWalkSat> ws,
                             DiskWalkSat::Create(whole, dopts));
      // Only the atom array lives in RAM for Tuffy-mm.
      result->peak_search_bytes = num_atoms;
      Rng rng(options_.seed);
      WalkSatResult wr = ws->Run(&rng);
      result->truth = std::move(wr.best_truth);
      result->flips = wr.flips;
      result->trace = std::move(wr.trace);
      break;
    }
  }

  // Loading (charged to load_seconds above) happened inside this span;
  // report pure search time.
  result->search_seconds = timer.ElapsedSeconds() - result->load_seconds;
  return Status::OK();
}

Result<EngineResult> TuffyEngine::Run() {
  TUFFY_RETURN_IF_ERROR(ValidateEngineOptions(options_));
  EngineResult result;

  Timer ground_timer;
  if (options_.grounding_mode == GroundingMode::kBottomUp) {
    // The engine's worker-thread knob also parallelizes per-rule
    // grounding (results are thread-count invariant; determinism_test).
    GroundingOptions gopts = options_.grounding;
    gopts.num_threads = options_.num_threads;
    BottomUpGrounder grounder(program_, evidence_, gopts,
                              options_.optimizer);
    TUFFY_ASSIGN_OR_RETURN(result.grounding, grounder.Ground());
    result.explain = grounder.explain();
  } else {
    TopDownGrounder grounder(program_, evidence_, options_.grounding);
    TUFFY_ASSIGN_OR_RETURN(result.grounding, grounder.Ground());
  }
  result.grounding_seconds = ground_timer.ElapsedSeconds();
  result.clause_table_bytes = result.grounding.clauses.EstimateBytes();
  TUFFY_RETURN_IF_ERROR(RunSearch(&result));

  // Uniform cost accounting across all modes.
  const size_t num_atoms = result.grounding.atoms.num_atoms();
  if (num_atoms > 0) {
    Problem whole =
        MakeWholeProblem(num_atoms, result.grounding.clauses.clauses());
    if (result.truth.size() != num_atoms) result.truth.assign(num_atoms, 0);
    result.search_cost = whole.EvalCost(result.truth, options_.hard_weight);
  }
  result.total_cost = result.search_cost + result.grounding.fixed_cost;
  return result;
}

Result<LearnResult> TuffyEngine::Learn(const LearnOptions& learn_options) {
  TUFFY_RETURN_IF_ERROR(ValidateEngineOptions(options_));
  TUFFY_RETURN_IF_ERROR(ValidateLearnOptions(learn_options));
  TUFFY_ASSIGN_OR_RETURN(
      TrainingSplit split,
      SplitEvidenceForLearning(program_, evidence_,
                               learn_options.query_predicates));

  // Exhaustive grounding: the lazy closure keeps only clauses violable
  // near the evidence-default world, which is sound for MAP search but
  // biases the satisfied-grounding counts the gradient is built from.
  GroundingOptions gopts = options_.grounding;
  gopts.lazy_closure = false;
  gopts.keep_zero_weight_clauses = true;
  GroundingResult grounding;
  if (options_.grounding_mode == GroundingMode::kBottomUp) {
    gopts.num_threads = options_.num_threads;
    BottomUpGrounder grounder(program_, split.evidence, gopts,
                              options_.optimizer);
    TUFFY_ASSIGN_OR_RETURN(grounding, grounder.Ground());
  } else {
    TopDownGrounder grounder(program_, split.evidence, gopts);
    TUFFY_ASSIGN_OR_RETURN(grounding, grounder.Ground());
  }
  return LearnWeights(program_, grounding, split.labels, learn_options);
}

SessionOptions TranslateSessionOptions(const EngineOptions& options) {
  SessionOptions sopts;
  sopts.total_flips = options.total_flips;
  sopts.p_random = options.p_random;
  sopts.hard_weight = options.hard_weight;
  sopts.num_threads = options.num_threads;
  sopts.seed = options.seed;
  sopts.exact_fast_path = options.exact_fast_path;
  sopts.track_marginals = options.task == InferenceTask::kMarginal;
  sopts.mcsat_samples = options.mcsat_samples;
  sopts.mcsat_burn_in = options.mcsat_burn_in;
  sopts.grounding = options.grounding;
  sopts.optimizer = options.optimizer;
  sopts.wal_dir = options.wal_dir;
  sopts.snapshot_every = options.snapshot_every;
  sopts.wal_fsync = options.wal_fsync;
  return sopts;
}

Result<std::unique_ptr<InferenceSession>> TuffyEngine::OpenSession() const {
  TUFFY_RETURN_IF_ERROR(ValidateEngineOptions(options_));
  auto session = std::make_unique<InferenceSession>(
      program_, TranslateSessionOptions(options_));
  TUFFY_RETURN_IF_ERROR(session->Open(evidence_));
  return session;
}

Result<std::unique_ptr<InferenceSession>> TuffyEngine::RecoverSession(
    RecoveryStats* stats) const {
  TUFFY_RETURN_IF_ERROR(ValidateEngineOptions(options_));
  return InferenceSession::Recover(program_, TranslateSessionOptions(options_),
                                   nullptr, stats);
}

Result<std::vector<GroundAtom>> ExtractTrueAtoms(
    const MlnProgram& program, const AtomStore& atoms,
    const std::vector<uint8_t>& truth, const std::string& predicate_name) {
  TUFFY_ASSIGN_OR_RETURN(PredicateId pid,
                         program.FindPredicate(predicate_name));
  std::vector<GroundAtom> out;
  for (AtomId a = 0; a < atoms.num_atoms(); ++a) {
    if (atoms.atom(a).pred == pid && a < truth.size() && truth[a] != 0) {
      out.push_back(atoms.atom(a));
    }
  }
  return out;
}

}  // namespace tuffy
