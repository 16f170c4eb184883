#ifndef TUFFY_RA_VEC_OPS_H_
#define TUFFY_RA_VEC_OPS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ra/id_table.h"
#include "ra/operators.h"
#include "util/result.h"
#include "util/status.h"

namespace tuffy {

/// Rows per batch. Large enough to amortize the per-batch virtual call
/// and timer, small enough that a chunk's working set stays in L2.
constexpr uint32_t kVecChunkRows = 1024;

/// A batch of rows in columnar form. Operators exchange whole chunks
/// instead of single Rows — the batch-at-a-time analogue of Volcano's
/// Next(Row*). Each column is exposed through a *view pointer*: it
/// either aliases this chunk's own `cols` storage (operators that
/// materialize output, e.g. filter gathers and join emissions) or
/// borrows a producer-owned buffer (VecScan points straight into the
/// IdTable; VecProject forwards child views) — scans and projections
/// cost zero copies. A chunk's views are valid until the producing
/// operator's next NextChunk/Close call; do not copy a chunk whose
/// views alias its own storage.
struct ColumnChunk {
  ColumnChunk() = default;
  /// Not copyable: a copy of a chunk whose views alias its own storage
  /// would silently point into the source's buffers. Moves are fine
  /// (vector data pointers survive them).
  ColumnChunk(const ColumnChunk&) = delete;
  ColumnChunk& operator=(const ColumnChunk&) = delete;
  ColumnChunk(ColumnChunk&&) = default;
  ColumnChunk& operator=(ColumnChunk&&) = default;

  uint32_t num_rows = 0;
  /// Owned storage; entry c stays empty when column c borrows.
  std::vector<std::vector<int64_t>> cols;
  std::vector<const int64_t*> views;

  const int64_t* col(size_t c) const { return views[c]; }
  size_t num_cols() const { return views.size(); }

  void Reset(size_t num_cols) {
    num_rows = 0;
    cols.resize(num_cols);
    for (auto& c : cols) c.clear();
    views.assign(num_cols, nullptr);
  }
  /// Points every view at this chunk's own storage; call after filling
  /// `cols` (data() is stable once writing is done).
  void SealOwned() {
    for (size_t c = 0; c < cols.size(); ++c) views[c] = cols[c].data();
  }
  /// Points column c at an external buffer of at least num_rows values.
  void SetView(size_t c, const int64_t* data) { views[c] = data; }
};

/// The predicate forms MLN grounding pushes into scans (constant
/// arguments, repeated variables, evidence-truth tests) and the cycle
/// residuals the optimizer hoists above joins. Anything outside this
/// grammar keeps the query on the Volcano path.
struct VecPredicate {
  enum class Kind { kColEqConst, kColEqCol };
  Kind kind = Kind::kColEqConst;
  int col_a = 0;
  int col_b = 0;
  int64_t value = 0;

  static VecPredicate EqConst(int col, int64_t value) {
    VecPredicate p;
    p.kind = Kind::kColEqConst;
    p.col_a = col;
    p.value = value;
    return p;
  }
  static VecPredicate EqCols(int a, int b) {
    VecPredicate p;
    p.kind = Kind::kColEqCol;
    p.col_a = a;
    p.col_b = b;
    return p;
  }
};

/// A half-open range [begin, end) of a driving scan's rows, numbered
/// across its segments.
struct RowRange {
  size_t begin = 0;
  size_t end = 0;
};

class VecOp;
using VecOpPtr = std::unique_ptr<VecOp>;

/// Batch physical operator: Open / NextChunk / Close. NextChunk fills
/// `out` with up to kVecChunkRows rows and returns true, or returns
/// false at end-of-stream (emitted chunks are never empty). Every
/// operator tracks rows, chunks, and inclusive wall time for
/// EXPLAIN ANALYZE — per-chunk bookkeeping is cheap enough to leave on.
///
/// Morsels. A plan is left-deep: every operator streams one input, its
/// *probe* child (a join's left side), down to the *driving* scan, and a
/// join's other input is consumed whole by Open (its *build*). Once a
/// plan is open, CloneProbe copies that probe chain over a row range of
/// the driving scan; the copies share the original's builds read-only,
/// so several of them can run at once, each on its own thread, and
/// their outputs in range order are the plan's output exactly.
class VecOp {
 public:
  virtual ~VecOp() = default;

  virtual Status Open() = 0;
  virtual Result<bool> NextChunk(ColumnChunk* out) = 0;
  virtual void Close() = 0;

  virtual size_t num_output_cols() const = 0;
  virtual std::string name() const = 0;
  virtual void ForEachChild(const std::function<void(const VecOp*)>& fn) const {
  }

  /// The input this operator streams, or null for a scan.
  virtual VecOp* probe_child() const { return nullptr; }
  /// Rows this operator emits per row of its probe input, as morsel
  /// sizing (SplitDrivingScan) reads it: exactly for `row` of `in` (a
  /// chunk with the probe input's columns), or over every possible row
  /// on average or at most. Valid once the operator is open.
  enum class Fan { kRow, kMean, kMax };
  virtual double FanOut(Fan /*fan*/, const ColumnChunk* /*in*/ = nullptr,
                        uint32_t /*row*/ = 0) const {
    return 1.0;
  }
  /// A copy of this opened operator's probe chain whose driving scan
  /// reads `rows` only, sharing every build read-only. The copy's Open
  /// builds nothing; the original must stay open until the copy closes.
  virtual VecOpPtr CloneProbe(RowRange rows) const = 0;
  /// Adds the counters of `copy` (a CloneProbe of this operator, run to
  /// completion) into this operator's, down the probe chain, so ANALYZE
  /// reads the sum over a plan's morsels with each build counted once.
  void AddProbeCounters(const VecOp& copy);

  uint64_t rows_produced() const { return rows_produced_; }
  uint64_t chunks_produced() const { return chunks_produced_; }
  /// Inclusive wall time spent in Open + NextChunk (children included).
  double seconds() const { return seconds_; }

 protected:
  uint64_t rows_produced_ = 0;
  uint64_t chunks_produced_ = 0;
  double seconds_ = 0.0;
};

/// Chunked scan of a columnar relation (see TableRef): each emitted
/// chunk *borrows* one segment's column arrays (a view per column, no
/// copies), so a chunk never spans two segments. The segments must
/// outlive the op and stay unmutated while the plan runs. A CloneProbe
/// copy reads one row range of them.
class VecScanOp final : public VecOp {
 public:
  explicit VecScanOp(const TableRef& ref)
      : segments_(ref.segments), num_cols_(ref.num_cols()), label_(ref.label) {}

  Status Open() override;
  Result<bool> NextChunk(ColumnChunk* out) override;
  void Close() override {}
  size_t num_output_cols() const override { return num_cols_; }
  std::string name() const override { return "VecScan(" + label_ + ")"; }
  VecOpPtr CloneProbe(RowRange rows) const override;

  /// Hands the remaining rows over in place instead of as chunks: counts
  /// the rows and chunks NextChunk would have emitted (so ANALYZE reads
  /// the same), leaves the scan at end of stream, and returns the
  /// segments. A segment with no rows may have zero columns. Only for a
  /// scan that reads every row (a build input).
  const std::vector<const IdTable*>& DrainInPlace();

  const std::vector<const IdTable*>& segments() const { return segments_; }

 private:
  std::vector<const IdTable*> segments_;
  size_t num_cols_;
  std::string label_;
  RowRange rows_{0, SIZE_MAX};
  size_t segment_ = 0;
  size_t pos_ = 0;
  size_t left_ = 0;  // rows of rows_ not yet emitted
};

/// Filters child chunks by a conjunction of VecPredicates: one selection
/// pass building an index list, one gather pass per column.
class VecFilterOp final : public VecOp {
 public:
  VecFilterOp(VecOpPtr child, std::vector<VecPredicate> predicates)
      : child_(std::move(child)), predicates_(std::move(predicates)) {}

  Status Open() override;
  Result<bool> NextChunk(ColumnChunk* out) override;
  void Close() override { child_->Close(); }
  size_t num_output_cols() const override {
    return child_->num_output_cols();
  }
  std::string name() const override;
  void ForEachChild(
      const std::function<void(const VecOp*)>& fn) const override {
    fn(child_.get());
  }
  VecOp* probe_child() const override { return child_.get(); }
  double FanOut(Fan fan, const ColumnChunk* in,
                uint32_t row) const override;
  VecOpPtr CloneProbe(RowRange rows) const override {
    return std::make_unique<VecFilterOp>(child_->CloneProbe(rows),
                                         predicates_);
  }

 private:
  VecOpPtr child_;
  std::vector<VecPredicate> predicates_;
  ColumnChunk scratch_;
  std::vector<uint32_t> sel_;
};

/// Projects child chunks onto a list of column indices by forwarding the
/// child's column views — no data movement.
class VecProjectOp final : public VecOp {
 public:
  VecProjectOp(VecOpPtr child, std::vector<int> columns)
      : child_(std::move(child)), columns_(std::move(columns)) {}

  Status Open() override;
  Result<bool> NextChunk(ColumnChunk* out) override;
  void Close() override { child_->Close(); }
  size_t num_output_cols() const override { return columns_.size(); }
  std::string name() const override;
  void ForEachChild(
      const std::function<void(const VecOp*)>& fn) const override {
    fn(child_.get());
  }
  VecOp* probe_child() const override { return child_.get(); }
  VecOpPtr CloneProbe(RowRange rows) const override {
    return std::make_unique<VecProjectOp>(child_->CloneProbe(rows), columns_);
  }

 private:
  VecOpPtr child_;
  std::vector<int> columns_;
  ColumnChunk scratch_;
};

/// Batch build/probe equi-join on one or two key columns. Open sorts the
/// build side (right input) into ascending key runs by counting: one
/// pass gives each build row its key's index, a second scatters the row
/// ids into per-key runs (CSR offsets plus row ids), so a run lists its
/// key's build rows in ascending order. A key finds its index in one of
/// two ways, reported by name() after Open:
///  - direct: a one-column key whose value range fits in NextPow2(2 ×
///    build rows) entries is its own index (value - minimum), so the
///    offsets never outgrow the hashed mode's slot array;
///  - hashed: a two-column key, or a one-column key with a sparse range,
///    finds it through an open-addressing table of packed keys (linear
///    probing, power-of-two slot array).
///
/// A bare VecScanOp build is read in place: its IdTable segments are
/// gathered from directly, and the scan still counts its rows and chunks
/// for ANALYZE. Any other build input is materialized column-wise. The
/// build is immutable once made, and CloneProbe copies share it.
///
/// The probe side streams in input order; each probe row's run is
/// emitted in ascending build-row order, one gather per column per
/// output chunk. That is HashJoinOp's order exactly (grounding equality
/// tests compare the two paths bit for bit).
///
/// Keys are packed into one uint64: the single-column key verbatim, the
/// dual-column key as two 32-bit halves (the optimizer only emits this
/// op over narrow id tables). Wider key sets stay on the Volcano path.
class VecHashJoinOp final : public VecOp {
 public:
  VecHashJoinOp(VecOpPtr left, VecOpPtr right, std::vector<JoinKey> keys);

  Status Open() override;
  Result<bool> NextChunk(ColumnChunk* out) override;
  void Close() override;
  size_t num_output_cols() const override {
    return left_->num_output_cols() + right_cols_;
  }
  std::string name() const override;
  void ForEachChild(
      const std::function<void(const VecOp*)>& fn) const override {
    fn(left_.get());
    if (right_ != nullptr) fn(right_.get());
  }
  VecOp* probe_child() const override { return left_.get(); }
  /// A probe row's run length; on average, build rows per distinct key;
  /// at most, the longest run.
  double FanOut(Fan fan, const ColumnChunk* in,
                uint32_t row) const override;
  VecOpPtr CloneProbe(RowRange rows) const override;

 private:
  enum class Addressing { kNone, kDirect, kHashed };

  /// Build rows [begin, end), with one array per column: an IdTable
  /// segment read in place, or the materialized build input.
  struct BuildSegment {
    size_t begin = 0;
    size_t end = 0;
    std::vector<const int64_t*> cols;
  };

  /// The build side: its rows by segment, and their runs.
  struct Build {
    std::vector<std::vector<int64_t>> owned_cols;
    std::vector<BuildSegment> segments;
    size_t rows = 0;
    Addressing addressing = Addressing::kNone;
    uint64_t key_min = 0;
    /// Key index k's run is row_ids[run_begin[k], run_begin[k + 1]).
    std::vector<uint32_t> run_begin;
    std::vector<uint32_t> row_ids;
    std::vector<uint64_t> slot_key;
    std::vector<uint32_t> slot_index;
    uint64_t slot_mask = 0;
  };

  /// A CloneProbe copy: no right input, `build` shared.
  VecHashJoinOp(VecOpPtr left, std::shared_ptr<const Build> build,
                std::vector<JoinKey> keys, size_t right_cols);

  Status LoadBuild(Build* b);
  void BuildRuns(Build* b) const;
  uint64_t BuildKey(const BuildSegment& seg, size_t row) const;
  uint64_t ProbeKey(const ColumnChunk& probe, uint32_t row) const;
  /// The run of `key` as [*pos, *end) (empty when absent).
  void FindRun(uint64_t key, uint32_t* pos, uint32_t* end) const;
  void GatherProbe(uint32_t from, uint32_t to, ColumnChunk* out) const;
  void GatherBuild(uint32_t n, ColumnChunk* out) const;

  VecOpPtr left_;
  VecOpPtr right_;  // null in a CloneProbe copy
  std::vector<JoinKey> keys_;
  size_t right_cols_ = 0;
  std::shared_ptr<const Build> build_;
  /// The last build's mode, for name() (kept after Close).
  Addressing addressing_ = Addressing::kNone;

  // Probe state across NextChunk calls, and the output chunk's
  // (probe row, build row) pairs.
  ColumnChunk probe_;
  uint32_t probe_row_ = 0;
  bool probe_valid_ = false;
  uint32_t run_pos_ = 0;
  uint32_t run_end_ = 0;
  std::vector<uint32_t> probe_sel_;
  std::vector<uint32_t> build_sel_;
};

/// Batch cross product: right side materialized, left streamed; for each
/// left row every right row is emitted in order (matching the Volcano
/// NestedLoopJoinOp with no keys). CloneProbe copies share the
/// materialized right side.
class VecCrossJoinOp final : public VecOp {
 public:
  VecCrossJoinOp(VecOpPtr left, VecOpPtr right)
      : left_(std::move(left)),
        right_(std::move(right)),
        right_cols_(right_->num_output_cols()) {}

  Status Open() override;
  Result<bool> NextChunk(ColumnChunk* out) override;
  void Close() override;
  size_t num_output_cols() const override {
    return left_->num_output_cols() + right_cols_;
  }
  std::string name() const override { return "VecCrossJoin"; }
  void ForEachChild(
      const std::function<void(const VecOp*)>& fn) const override {
    fn(left_.get());
    if (right_ != nullptr) fn(right_.get());
  }
  VecOp* probe_child() const override { return left_.get(); }
  double FanOut(Fan /*fan*/, const ColumnChunk* /*in*/,
                uint32_t /*row*/) const override {
    return static_cast<double>(build_->rows);
  }
  VecOpPtr CloneProbe(RowRange rows) const override;

 private:
  struct Build {
    std::vector<std::vector<int64_t>> cols;
    size_t rows = 0;
  };

  /// A CloneProbe copy: no right input, `build` shared.
  VecCrossJoinOp(VecOpPtr left, std::shared_ptr<const Build> build,
                 size_t right_cols)
      : left_(std::move(left)),
        right_cols_(right_cols),
        build_(std::move(build)) {}

  VecOpPtr left_;
  VecOpPtr right_;  // null in a CloneProbe copy
  size_t right_cols_;
  std::shared_ptr<const Build> build_;
  ColumnChunk probe_;
  uint32_t probe_row_ = 0;
  bool probe_valid_ = false;
  size_t right_pos_ = 0;
};

/// Batch hash anti-join against an evidence relation — the vectorized
/// twin of AntiJoinOp, restricted to <= 4 distinct probe columns. Narrow
/// build sides guarantee 31-bit values, so one or two key columns pack
/// into a single uint64 (the original fast path, untouched); three or
/// four pack into a 128-bit key held as two words in parallel slot
/// arrays. Both layouts index the same open-addressing set as
/// VecHashJoinOp's hashed mode (key set only: no runs, a slot is just
/// occupied or not). Child rows whose packed probe key is present are
/// dropped; surviving rows keep their order, so the plan stays
/// bit-compatible with the Volcano translation.
class VecAntiJoinOp final : public VecOp {
 public:
  VecAntiJoinOp(VecOpPtr child, AntiJoinRef ref);

  Status Open() override;
  Result<bool> NextChunk(ColumnChunk* out) override;
  void Close() override;
  size_t num_output_cols() const override {
    return child_->num_output_cols();
  }
  std::string name() const override {
    return "VecAntiJoin(" + ref_.label + ")";
  }
  void ForEachChild(
      const std::function<void(const VecOp*)>& fn) const override {
    fn(child_.get());
  }
  VecOp* probe_child() const override { return child_.get(); }
  VecOpPtr CloneProbe(RowRange rows) const override;

 private:
  /// The build side's key set; CloneProbe copies share it.
  struct KeySet {
    /// More than two key columns: slot_key_hi holds each key's second
    /// word (empty otherwise).
    std::vector<uint64_t> slot_key;
    std::vector<uint64_t> slot_key_hi;
    std::vector<uint8_t> slot_used;
    uint64_t slot_mask = 0;
    size_t keys = 0;
    bool match_all = false;
  };

  void PackProbeKey(const ColumnChunk& chunk, uint32_t row, uint64_t* lo,
                    uint64_t* hi) const;
  void PackBuildKey(const IdTable& build, size_t row, uint64_t* lo,
                    uint64_t* hi) const;
  uint64_t HashSlot(uint64_t lo, uint64_t hi) const;
  bool Contains(uint64_t lo, uint64_t hi) const;

  VecOpPtr child_;
  AntiJoinRef ref_;
  std::vector<std::pair<int, int64_t>> const_checks_;
  std::vector<std::pair<int, int>> dup_checks_;
  std::vector<int> key_build_cols_;
  std::vector<int> key_probe_cols_;
  /// More than two key columns: keys are 128-bit. One or two columns
  /// keep the original single-word path.
  bool wide_ = false;
  /// Set by Open, or shared by the original of a CloneProbe copy.
  std::shared_ptr<const KeySet> set_;

  ColumnChunk scratch_;
  std::vector<uint32_t> sel_;
};

/// Cuts the driving scan of an opened plan into row ranges that each
/// feed about `morsel_rows` rows to the plan's output, estimated from
/// the builds: a driving row's weight is its exact fan-out through the
/// scan's filter and the first join, times the mean fan-out of every
/// operator above. A range ends at the first row that brings its weight
/// to `morsel_rows`, so the cut is a function of the rows alone. A plan
/// whose output is bounded below `morsel_rows` (scan rows times every
/// operator's largest fan-out) stays one range without a weighing pass.
/// Always returns at least one range; the ranges cover the scan in
/// order.
std::vector<RowRange> SplitDrivingScan(const VecOp& root, double morsel_rows);

/// Runs a batch plan to completion, invoking `fn` on every output chunk.
Status ForEachChunk(VecOp* root,
                    const std::function<Status(const ColumnChunk&)>& fn);

/// Appends one line per operator (rows, chunks, inclusive milliseconds)
/// to `out` — the EXPLAIN ANALYZE rendering of a batch plan.
void AppendVecAnalyze(const VecOp* root, int depth, std::string* out);

}  // namespace tuffy

#endif  // TUFFY_RA_VEC_OPS_H_
