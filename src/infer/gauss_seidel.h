#ifndef TUFFY_INFER_GAUSS_SEIDEL_H_
#define TUFFY_INFER_GAUSS_SEIDEL_H_

#include <cstdint>
#include <vector>

#include "infer/walksat.h"
#include "mrf/partitioner.h"

namespace tuffy {

struct GaussSeidelOptions {
  /// Number of sweeps T over all partitions (Section 3.4).
  int sweeps = 4;
  /// WalkSAT flips per partition per sweep.
  uint64_t flips_per_partition = 100000;
  double p_random = 0.5;
  double hard_weight = 1e6;
  double timeout_seconds = std::numeric_limits<double>::infinity();
};

struct GaussSeidelResult {
  std::vector<uint8_t> truth;
  /// Exact global cost of `truth` over all clauses (including cut).
  double cost = 0.0;
  uint64_t flips = 0;
  /// One point per sweep: global cost after the sweep.
  std::vector<TracePoint> trace;
};

/// Partition-aware search (Section 3.4): an instance of the Gauss-Seidel
/// method. For t = 1..T, for each partition i, WalkSAT runs on partition
/// i's clauses plus its cut clauses conditioned on the current values of
/// atoms in other partitions; the best local state found is written back
/// before moving to the next partition.
GaussSeidelResult RunGaussSeidel(size_t num_atoms,
                                 const std::vector<GroundClause>& clauses,
                                 const PartitionResult& partitions,
                                 const GaussSeidelOptions& options,
                                 uint64_t seed);

}  // namespace tuffy

#endif  // TUFFY_INFER_GAUSS_SEIDEL_H_
