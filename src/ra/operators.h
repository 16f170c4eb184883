#ifndef TUFFY_RA_OPERATORS_H_
#define TUFFY_RA_OPERATORS_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ra/expr.h"
#include "ra/query.h"
#include "ra/table.h"
#include "util/result.h"
#include "util/status.h"
#include "util/timer.h"

namespace tuffy {

/// Volcano-style physical operator: Open / Next / Close. Each Next fills
/// `out` and returns true, or returns false at end-of-stream.
class PhysicalOp {
 public:
  virtual ~PhysicalOp() = default;

  virtual Status Open() = 0;
  virtual Result<bool> Next(Row* out) = 0;
  virtual void Close() = 0;

  virtual const Schema& output_schema() const = 0;
  /// One-line description, e.g. "HashJoin(keys=1)".
  virtual std::string name() const = 0;
  /// Visits direct children (EXPLAIN ANALYZE tree walks).
  virtual void ForEachChild(const std::function<void(PhysicalOp*)>& fn) {}

  /// Rows emitted since Open (for EXPLAIN ANALYZE-style reporting).
  uint64_t rows_produced() const { return rows_produced_; }
  /// Inclusive wall time in Open + Next; only accumulated when analyze
  /// instrumentation is on (per-row clock reads are not free).
  double seconds() const { return seconds_; }
  void set_analyze(bool on) { analyze_ = on; }

 protected:
  /// Accumulates inclusive time into the op when analyze mode is on;
  /// a single predictable branch otherwise.
  class MaybeTimer {
   public:
    explicit MaybeTimer(PhysicalOp* op) : op_(op->analyze_ ? op : nullptr) {}
    ~MaybeTimer() {
      if (op_ != nullptr) op_->seconds_ += timer_.ElapsedSeconds();
    }

   private:
    Timer timer_;
    PhysicalOp* op_;
  };

  uint64_t rows_produced_ = 0;
  double seconds_ = 0.0;
  bool analyze_ = false;
};

using PhysicalOpPtr = std::unique_ptr<PhysicalOp>;

/// Turns on timing instrumentation for a whole plan.
void EnableAnalyze(PhysicalOp* root);

/// Appends one line per operator (rows, inclusive milliseconds) to `out`
/// — the EXPLAIN ANALYZE rendering of a Volcano plan.
void AppendAnalyze(PhysicalOp* root, int depth, std::string* out);

/// Full scan of a columnar relation (see TableRef): its IdTable
/// segments in order, each row widened to a Row of int64 Datums. The
/// Volcano plan's only leaf; the batch plan's is VecScanOp.
class SeqScanOp final : public PhysicalOp {
 public:
  explicit SeqScanOp(const TableRef& ref);

  Status Open() override;
  Result<bool> Next(Row* out) override;
  void Close() override {}
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "SeqScan(" + label_ + ")"; }

 private:
  std::vector<const IdTable*> segments_;
  std::string label_;
  Schema schema_;
  size_t segment_ = 0;
  size_t pos_ = 0;
};

/// Filters child rows by a predicate.
class FilterOp final : public PhysicalOp {
 public:
  FilterOp(PhysicalOpPtr child, ExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}

  Status Open() override;
  Result<bool> Next(Row* out) override;
  void Close() override { child_->Close(); }
  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  std::string name() const override {
    return "Filter(" + predicate_->ToString() + ")";
  }
  void ForEachChild(const std::function<void(PhysicalOp*)>& fn) override {
    fn(child_.get());
  }

 private:
  PhysicalOpPtr child_;
  ExprPtr predicate_;
};

/// Projects child rows onto a list of column indices.
class ProjectOp final : public PhysicalOp {
 public:
  ProjectOp(PhysicalOpPtr child, std::vector<int> columns,
            std::vector<std::string> names = {});

  Status Open() override { return child_->Open(); }
  Result<bool> Next(Row* out) override;
  void Close() override { child_->Close(); }
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override;
  void ForEachChild(const std::function<void(PhysicalOp*)>& fn) override {
    fn(child_.get());
  }

 private:
  PhysicalOpPtr child_;
  std::vector<int> columns_;
  Schema schema_;
};

/// Equi-join key pair: left column index, right column index.
struct JoinKey {
  int left_col;
  int right_col;
};

/// Tuple-at-a-time nested-loop join with an arbitrary residual predicate
/// over the concatenated row. The Alchemy-style baseline plan uses only
/// this operator (Table 6 "fixed join algorithm").
class NestedLoopJoinOp final : public PhysicalOp {
 public:
  /// `predicate` may be null (cross product). Keys are checked as part of
  /// the predicate loop.
  NestedLoopJoinOp(PhysicalOpPtr left, PhysicalOpPtr right,
                   std::vector<JoinKey> keys, ExprPtr residual = nullptr);

  Status Open() override;
  Result<bool> Next(Row* out) override;
  void Close() override;
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override;
  void ForEachChild(const std::function<void(PhysicalOp*)>& fn) override {
    fn(left_.get());
    fn(right_.get());
  }

 private:
  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  std::vector<JoinKey> keys_;
  ExprPtr residual_;
  Schema schema_;
  // Right side is materialized once; left streams.
  std::vector<Row> right_rows_;
  Row left_row_;
  bool left_valid_ = false;
  size_t right_pos_ = 0;
};

/// Classic build/probe hash join on equi-keys; build side = right input.
class HashJoinOp final : public PhysicalOp {
 public:
  HashJoinOp(PhysicalOpPtr left, PhysicalOpPtr right,
             std::vector<JoinKey> keys, ExprPtr residual = nullptr);

  Status Open() override;
  Result<bool> Next(Row* out) override;
  void Close() override;
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override;
  void ForEachChild(const std::function<void(PhysicalOp*)>& fn) override {
    fn(left_.get());
    fn(right_.get());
  }

 private:
  struct KeyHash {
    size_t operator()(const std::vector<Datum>& key) const {
      size_t h = 0x9E3779B97F4A7C15ull;
      for (const Datum& d : key) h = h * 1315423911u ^ d.Hash();
      return h;
    }
  };

  /// Fills scratch_key_ in place (one reusable buffer instead of a
  /// per-row vector allocation). Returns false on a NULL key component.
  bool FillKey(const Row& row, bool left);

  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  std::vector<JoinKey> keys_;
  ExprPtr residual_;
  Schema schema_;
  std::unordered_map<std::vector<Datum>, std::vector<Row>, KeyHash> hash_table_;
  std::vector<Datum> scratch_key_;
  Row left_row_;
  bool left_valid_ = false;
  const std::vector<Row>* matches_ = nullptr;
  size_t match_pos_ = 0;
};

/// Sort-merge join on equi-keys: both inputs are materialized, sorted by
/// key, and merged (PostgreSQL merge join).
class SortMergeJoinOp final : public PhysicalOp {
 public:
  SortMergeJoinOp(PhysicalOpPtr left, PhysicalOpPtr right,
                  std::vector<JoinKey> keys, ExprPtr residual = nullptr);

  Status Open() override;
  Result<bool> Next(Row* out) override;
  void Close() override;
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override;
  void ForEachChild(const std::function<void(PhysicalOp*)>& fn) override {
    fn(left_.get());
    fn(right_.get());
  }

 private:
  std::vector<Datum> Key(const Row& row, bool left) const;

  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  std::vector<JoinKey> keys_;
  ExprPtr residual_;
  Schema schema_;
  /// Materialized inputs with their join keys computed once per row
  /// (the sort used to rebuild the key vector on every comparison).
  std::vector<std::pair<std::vector<Datum>, Row>> left_rows_;
  std::vector<std::pair<std::vector<Datum>, Row>> right_rows_;
  size_t li_ = 0;
  size_t ri_ = 0;
  // Current matching key group.
  size_t group_left_end_ = 0;
  size_t group_right_begin_ = 0;
  size_t group_right_end_ = 0;
  size_t cur_left_ = 0;
  size_t cur_right_ = 0;
  bool in_group_ = false;
};

/// Hash anti-join against an evidence side table (see AntiJoinRef): the
/// build side's qualifying rows — constants matched, repeated-variable
/// positions equal — are keyed by their variable positions, and child
/// rows whose probe key is present are dropped. This is the in-plan
/// satisfied-by-evidence test: it only ever removes rows whose clause
/// resolution would discard anyway, so plans with and without it ground
/// bit-identically. Supports any key arity (the packed-key batch variant
/// VecAntiJoinOp covers <= 2 distinct probe columns).
class AntiJoinOp final : public PhysicalOp {
 public:
  AntiJoinOp(PhysicalOpPtr child, AntiJoinRef ref);

  Status Open() override;
  Result<bool> Next(Row* out) override;
  void Close() override;
  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  std::string name() const override { return "AntiJoin(" + ref_.label + ")"; }
  void ForEachChild(const std::function<void(PhysicalOp*)>& fn) override {
    fn(child_.get());
  }

 private:
  struct KeyHash {
    size_t operator()(const std::vector<int64_t>& key) const {
      size_t h = 0x9E3779B97F4A7C15ull;
      for (int64_t v : key) h = h * 1315423911u ^ std::hash<int64_t>{}(v);
      return h;
    }
  };

  PhysicalOpPtr child_;
  AntiJoinRef ref_;
  // Compiled from ref_.terms (see CompileAntiJoinKeys in query lowering):
  // build-side constant checks, intra-build repeated-variable equalities,
  // and one representative build column per distinct probe column.
  std::vector<std::pair<int, int64_t>> const_checks_;
  std::vector<std::pair<int, int>> dup_checks_;
  std::vector<int> key_build_cols_;
  std::vector<int> key_probe_cols_;
  std::unordered_set<std::vector<int64_t>, KeyHash> keys_;
  /// No variable positions and some qualifying build row: the literal is
  /// ground and evidence-satisfied, so every child row is dropped.
  bool match_all_ = false;
  std::vector<int64_t> scratch_key_;
};

/// Splits `ref.terms` into the compiled pieces the anti-join operators
/// share: per-build-column constant requirements, repeated-probe-column
/// equalities within the build row, and the distinct (build col, probe
/// col) key pairs in first-occurrence order.
void CompileAntiJoinKeys(const AntiJoinRef& ref,
                         std::vector<std::pair<int, int64_t>>* const_checks,
                         std::vector<std::pair<int, int>>* dup_checks,
                         std::vector<int>* key_build_cols,
                         std::vector<int>* key_probe_cols);

/// True when the build row at `row` passes the compiled constant and
/// repeated-variable checks.
bool AntiJoinBuildRowQualifies(
    const IdTable& build, size_t row,
    const std::vector<std::pair<int, int64_t>>& const_checks,
    const std::vector<std::pair<int, int>>& dup_checks);

/// Runs a physical plan to completion, materializing the output.
Result<Table> ExecuteToTable(PhysicalOp* root, const std::string& name);

}  // namespace tuffy

#endif  // TUFFY_RA_OPERATORS_H_
