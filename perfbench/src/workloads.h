#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The three workloads: their generated inputs and engine settings, and
// the measuring entry points. The README explains why each workload was
// chosen.

#include <cstdint>
#include <string>

#include "common.h"
#include "datagen/datasets.h"
#include "exec/tuffy_engine.h"
#include "serve/inference_session.h"
#include "util/result.h"

namespace perfbench {

inline constexpr const char* kLp = "batch_ground_lp";
inline constexpr const char* kIe = "batch_search_ie";
inline constexpr const char* kRc = "serve_rc_wire";

/// Flip budgets: small on LP (grounding-bound), converged on IE
/// (search-bound), per-session cold-start budget on RC.
constexpr uint64_t kLpFlips = 200000;
constexpr uint64_t kIeFlips = 20000000;
constexpr uint64_t kRcFlips = 2000000;

/// Worker threads of the batch engine.
constexpr int kBatchThreads = 2;

/// Serving: server workers, client connections, snapshot cadence.
constexpr int kServeWorkers = 2;
constexpr int kServeClients = 2;
constexpr uint32_t kSnapshotEvery = 32;
/// Datagen seed of the serving dataset (the workload seed drives its
/// delta streams).
constexpr uint64_t kRcDatasetSeed = 1;

/// The traced run measures every layer on every workload: the
/// workload's own path for the run's seconds, the other path (batch Run
/// on the serving input, serving on a batch input) as a probe of
/// kProbeSeconds and kProbeDeltas in-process deltas.
constexpr double kProbeSeconds = 5.0;
constexpr int kProbeDeltas = 40;
/// In-process deltas of the serving workload's own traced run.
constexpr int kServeDeltas = 256;

bool IsWorkload(const std::string& name);

/// Generates the workload's dataset; `seed` feeds the datagen params.
tuffy::Result<tuffy::Dataset> MakeWorkloadDataset(const std::string& workload,
                                                  uint64_t seed);

/// The workload's flip budget (batch Run and session cold start).
uint64_t WorkloadFlips(const std::string& workload);

/// The predicate a client reads back (QueryMap, the Recover check).
std::string QueryPredicate(const std::string& workload);

/// Engine options of a batch Run over the workload's input
/// (instrumentation off).
tuffy::EngineOptions BatchEngineOptions(const std::string& workload);

/// Session template of serving over the workload's input (durability
/// fields are set by the server's durability root).
tuffy::SessionOptions ServeSessionOptions(const std::string& workload);

/// End-to-end runs (`--trace 0`).
int RunBatch(const RunConfig& cfg);
int RunServe(const RunConfig& cfg);

/// Per-layer rows of ground, ra, mrf, exec, and infer: untraced and
/// traced Runs alternated for `seconds`, then standalone layer calls.
/// Returns the traced Run's wall-time overhead (median ratio - 1).
double BatchLayers(const RunConfig& cfg, const Input& input, double seconds,
                   Report* report);

/// Per-layer rows of serve, durability, and net: a traced wire phase of
/// `seconds`, then `inproc_deltas` deltas fed to an untraced and a traced
/// in-process session. Returns the traced session's ApplyDelta overhead
/// (median ratio - 1).
double ServingLayers(const RunConfig& cfg, const Input& input, double seconds,
                     int inproc_deltas, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
