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

/// Batch physical operator: Open / NextChunk / Close. NextChunk fills
/// `out` with up to kVecChunkRows rows and returns true, or returns
/// false at end-of-stream (emitted chunks are never empty). Every
/// operator tracks rows, chunks, and inclusive wall time for
/// EXPLAIN ANALYZE — per-chunk bookkeeping is cheap enough to leave on.
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

  uint64_t rows_produced() const { return rows_produced_; }
  uint64_t chunks_produced() const { return chunks_produced_; }
  /// Inclusive wall time spent in Open + NextChunk (children included).
  double seconds() const { return seconds_; }

 protected:
  uint64_t rows_produced_ = 0;
  uint64_t chunks_produced_ = 0;
  double seconds_ = 0.0;
};

using VecOpPtr = std::unique_ptr<VecOp>;

/// Chunked scan of a columnar relation (see TableRef): each emitted
/// chunk *borrows* one segment's column arrays (a view per column, no
/// copies), so a chunk never spans two segments. The segments must
/// outlive the op and stay unmutated while the plan runs.
class VecScanOp final : public VecOp {
 public:
  explicit VecScanOp(const TableRef& ref)
      : segments_(ref.segments), num_cols_(ref.num_cols()), label_(ref.label) {}

  Status Open() override;
  Result<bool> NextChunk(ColumnChunk* out) override;
  void Close() override {}
  size_t num_output_cols() const override { return num_cols_; }
  std::string name() const override { return "VecScan(" + label_ + ")"; }

 private:
  std::vector<const IdTable*> segments_;
  size_t num_cols_;
  std::string label_;
  size_t segment_ = 0;
  size_t pos_ = 0;
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

 private:
  VecOpPtr child_;
  std::vector<int> columns_;
  ColumnChunk scratch_;
};

/// Batch build/probe equi-join on one or two key columns. The build side
/// (right input) is materialized into flat columns and indexed by an
/// open-addressing table: power-of-two slot array of (packed key, chain
/// head), linear probing, with per-row `next` links for duplicate keys.
/// Chains preserve build-row order, and the probe side streams in input
/// order, so output order matches HashJoinOp exactly (grounding equality
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
    return left_->num_output_cols() + right_->num_output_cols();
  }
  std::string name() const override;
  void ForEachChild(
      const std::function<void(const VecOp*)>& fn) const override {
    fn(left_.get());
    fn(right_.get());
  }

 private:
  uint64_t PackBuildKey(size_t row) const;
  uint64_t PackProbeKey(uint32_t row) const;
  /// Returns the chain head for `key`, or -1.
  int32_t Lookup(uint64_t key) const;

  VecOpPtr left_;
  VecOpPtr right_;
  std::vector<JoinKey> keys_;

  // Build side, materialized column-wise.
  std::vector<std::vector<int64_t>> build_cols_;
  size_t build_rows_ = 0;
  std::vector<uint64_t> slot_key_;
  std::vector<int32_t> slot_head_;
  std::vector<int32_t> next_;
  uint64_t slot_mask_ = 0;

  // Probe state across NextChunk calls.
  ColumnChunk probe_;
  uint32_t probe_row_ = 0;
  bool probe_valid_ = false;
  int32_t chain_ = -1;
};

/// Batch cross product: right side materialized, left streamed; for each
/// left row every right row is emitted in order (matching the Volcano
/// NestedLoopJoinOp with no keys).
class VecCrossJoinOp final : public VecOp {
 public:
  VecCrossJoinOp(VecOpPtr left, VecOpPtr right)
      : left_(std::move(left)), right_(std::move(right)) {}

  Status Open() override;
  Result<bool> NextChunk(ColumnChunk* out) override;
  void Close() override;
  size_t num_output_cols() const override {
    return left_->num_output_cols() + right_->num_output_cols();
  }
  std::string name() const override { return "VecCrossJoin"; }
  void ForEachChild(
      const std::function<void(const VecOp*)>& fn) const override {
    fn(left_.get());
    fn(right_.get());
  }

 private:
  VecOpPtr left_;
  VecOpPtr right_;
  std::vector<std::vector<int64_t>> right_cols_;
  size_t right_rows_ = 0;
  ColumnChunk probe_;
  uint32_t probe_row_ = 0;
  bool probe_valid_ = false;
  size_t right_pos_ = 0;
};

/// Batch hash anti-join against an evidence side table — the vectorized
/// twin of AntiJoinOp, restricted to <= 4 distinct probe columns. Narrow
/// build sides guarantee 31-bit values, so one or two key columns pack
/// into a single uint64 (the original fast path, untouched); three or
/// four pack into a 128-bit key held as two words in parallel slot
/// arrays. Both layouts index the same open-addressing set as
/// VecHashJoinOp (key set only: no chains, a slot is just occupied or
/// not). Child rows whose packed probe key is present are dropped;
/// surviving rows keep their order, so the plan stays bit-compatible
/// with the Volcano translation.
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

 private:
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
  /// More than two key columns: keys are 128-bit, slot_key_hi_ holds the
  /// second word. One or two columns keep the original single-word path
  /// (slot_key_hi_ stays empty).
  bool wide_ = false;

  std::vector<uint64_t> slot_key_;
  std::vector<uint64_t> slot_key_hi_;
  std::vector<uint8_t> slot_used_;
  uint64_t slot_mask_ = 0;
  size_t build_keys_ = 0;
  bool match_all_ = false;

  ColumnChunk scratch_;
  std::vector<uint32_t> sel_;
};

/// Runs a batch plan to completion, invoking `fn` on every output chunk.
Status ForEachChunk(VecOp* root,
                    const std::function<Status(const ColumnChunk&)>& fn);

/// Appends one line per operator (rows, chunks, inclusive milliseconds)
/// to `out` — the EXPLAIN ANALYZE rendering of a batch plan.
void AppendVecAnalyze(const VecOp* root, int depth, std::string* out);

}  // namespace tuffy

#endif  // TUFFY_RA_VEC_OPS_H_
