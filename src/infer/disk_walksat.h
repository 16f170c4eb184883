#ifndef TUFFY_INFER_DISK_WALKSAT_H_
#define TUFFY_INFER_DISK_WALKSAT_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "infer/walksat.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "util/result.h"

namespace tuffy {

/// Options for the RDBMS-resident WalkSAT (Tuffy-mm, Appendix B.2).
struct DiskWalkSatOptions {
  uint64_t max_flips = 1000;
  double p_random = 0.5;
  double hard_weight = 1e6;
  double timeout_seconds = std::numeric_limits<double>::infinity();
  /// Buffer-pool frames available to the search.
  size_t buffer_frames = 64;
  /// Simulated per-page-I/O latency in microseconds. Appendix C.1 argues
  /// a disk-backed flip costs on the order of a random I/O; this knob
  /// models that without spinning disks.
  uint32_t io_latency_us = 20;
  uint64_t trace_every_flips = 0;
  bool init_random = true;
};

/// WalkSAT executed against an on-disk clause table, reproducing Tuffy's
/// in-RDBMS search baseline. Per Appendix B.2, the atom truth values are
/// cached as in-memory arrays while the per-clause data is read-only and
/// disk-resident: every flip requires scanning the clause table through
/// the buffer pool (to sample a violated clause, and again to evaluate
/// the greedy flip choice), so the flipping rate is bounded by page I/O
/// — the three-to-five orders-of-magnitude gap of Table 3.
class DiskWalkSat {
 public:
  /// Materializes the clause table into heap-file pages. Clauses longer
  /// than the record capacity are kept in a memory-side overflow list and
  /// evaluated without charging I/O — a conservative simplification that
  /// *understates* the cost of disk-resident search.
  static Result<std::unique_ptr<DiskWalkSat>> Create(
      const Problem& problem, const DiskWalkSatOptions& options);

  WalkSatResult Run(Rng* rng);

  /// Clause record capacity; longer clauses are not supported on disk.
  static constexpr int kMaxLitsPerClause = 24;

  const BufferPoolStats& buffer_stats() const { return pool_->stats(); }
  uint64_t pages_read() const { return disk_->num_reads(); }

 private:
  struct ClauseRecord {
    double weight;
    /// |effective weight| (hard_weight for hard clauses), precomputed at
    /// Create so the per-flip scans do a single load instead of a fabs
    /// plus a hard-ness branch per record.
    double abs_eff_weight;
    uint8_t hard;
    uint8_t num_lits;
    Lit lits[kMaxLitsPerClause];
  };

  DiskWalkSat(size_t num_atoms, const DiskWalkSatOptions& options);

  /// A clause picked by the violated-clause scan (copied out of its
  /// on-disk record or the overflow list).
  struct PickedClause {
    std::vector<Lit> lits;
    double weight = 0.0;
    bool hard = false;
  };

  /// Scans the clause table, computing the total cost and reservoir-
  /// sampling one violated clause. Returns false if none is violated.
  Result<bool> ScanForViolated(Rng* rng, double* total_cost,
                               PickedClause* out);

  /// Scans the clause table computing the flip delta for each candidate
  /// atom (one pass evaluates all candidates).
  Status ComputeDeltas(const std::vector<AtomId>& candidates,
                       std::vector<double>* deltas);

  bool ClauseTrue(const ClauseRecord& rec) const;
  bool IsViolated(const ClauseRecord& rec) const {
    bool is_true = ClauseTrue(rec);
    return (rec.hard || rec.weight >= 0) ? !is_true : is_true;
  }

  size_t num_atoms_;
  DiskWalkSatOptions options_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<HeapFile> file_;
  /// Atom truth values, cached in memory per Appendix B.2.
  std::vector<uint8_t> truth_;
  /// Clauses too long for fixed-size records (see Create).
  Problem overflow_;
  /// Precomputed |effective weight| per overflow clause.
  std::vector<double> overflow_abs_w_;
};

}  // namespace tuffy

#endif  // TUFFY_INFER_DISK_WALKSAT_H_
