#ifndef TUFFY_MRF_PARTITIONER_H_
#define TUFFY_MRF_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "ground/ground_clause.h"
#include "util/result.h"

namespace tuffy {

/// Output of the greedy MRF partitioner.
struct PartitionResult {
  /// Partition index of every atom.
  std::vector<int32_t> partition_of_atom;
  /// Position of every atom in its partition's atom list: its local id in
  /// the partition's conditioned sub-problem.
  std::vector<uint32_t> position_of_atom;
  /// Atom ids per partition, ascending.
  std::vector<std::vector<AtomId>> atoms;
  /// Clauses fully contained in each partition.
  std::vector<std::vector<uint32_t>> clauses;
  /// Clauses spanning two or more partitions (the cut).
  std::vector<uint32_t> cut_clauses;
  /// Size metric (atoms + literals) per partition.
  std::vector<uint64_t> sizes;

  size_t num_partitions() const { return atoms.size(); }
  /// Total weight of cut clauses, the quantity Algorithm 3 heuristically
  /// minimizes.
  double CutWeight(const std::vector<GroundClause>& all) const;
};

/// Algorithm 3 (Appendix B.7): Kruskal-style agglomerative partitioning.
/// Clauses are scanned in descending |weight| (hard clauses first) and a
/// clause's atoms are merged into one partition unless that would grow
/// the partition beyond `beta` (size metric: atoms + literals). With
/// beta = UINT64_MAX the result is exactly the connected components.
///
/// Clauses whose atoms end up in different partitions form the cut and
/// are handled by the Gauss-Seidel partition-aware search (Section 3.4).
PartitionResult PartitionMrf(size_t num_atoms,
                             const std::vector<GroundClause>& clauses,
                             uint64_t beta);

}  // namespace tuffy

#endif  // TUFFY_MRF_PARTITIONER_H_
