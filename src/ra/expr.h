#ifndef TUFFY_RA_EXPR_H_
#define TUFFY_RA_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "ra/schema.h"

namespace tuffy {

/// Comparison operators for scalar predicates.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpToString(CompareOp op);

/// A scalar expression evaluated over a single row. Supports the forms
/// grounding needs: column references, literals, comparisons, and boolean
/// connectives. SQL three-valued logic is simplified to two-valued with
/// NULL comparing unequal to everything (sufficient because grounding's
/// relations are interned ids and never contain NULL join keys).
class Expr {
 public:
  virtual ~Expr() = default;
  virtual Datum Eval(const Row& row) const = 0;
  virtual std::string ToString() const = 0;

  /// Convenience: evaluates and coerces to bool (NULL/non-bool => false).
  bool EvalBool(const Row& row) const {
    Datum d = Eval(row);
    return d.is_bool() && d.boolean();
  }
};

using ExprPtr = std::unique_ptr<Expr>;

/// References the i-th column of the input row.
class ColumnRefExpr final : public Expr {
 public:
  explicit ColumnRefExpr(int index, std::string name = "")
      : index_(index), name_(std::move(name)) {}
  Datum Eval(const Row& row) const override { return row[index_]; }
  std::string ToString() const override;
  int index() const { return index_; }

 private:
  int index_;
  std::string name_;
};

/// A constant.
class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Datum value) : value_(std::move(value)) {}
  Datum Eval(const Row&) const override { return value_; }
  std::string ToString() const override { return value_.ToString(); }
  const Datum& value() const { return value_; }

 private:
  Datum value_;
};

/// lhs <op> rhs.
class CompareExpr final : public Expr {
 public:
  CompareExpr(CompareOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  Datum Eval(const Row& row) const override;
  std::string ToString() const override;
  CompareOp op() const { return op_; }
  const Expr* lhs() const { return lhs_.get(); }
  const Expr* rhs() const { return rhs_.get(); }

 private:
  CompareOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

/// Conjunction of child predicates (empty conjunction = true).
class AndExpr final : public Expr {
 public:
  explicit AndExpr(std::vector<ExprPtr> children)
      : children_(std::move(children)) {}
  Datum Eval(const Row& row) const override;
  std::string ToString() const override;
  const std::vector<ExprPtr>& children() const { return children_; }

 private:
  std::vector<ExprPtr> children_;
};

/// Disjunction of child predicates (empty disjunction = false).
class OrExpr final : public Expr {
 public:
  explicit OrExpr(std::vector<ExprPtr> children)
      : children_(std::move(children)) {}
  Datum Eval(const Row& row) const override;
  std::string ToString() const override;

 private:
  std::vector<ExprPtr> children_;
};

/// Logical negation.
class NotExpr final : public Expr {
 public:
  explicit NotExpr(ExprPtr child) : child_(std::move(child)) {}
  Datum Eval(const Row& row) const override {
    return Datum(!child_->EvalBool(row));
  }
  std::string ToString() const override {
    return "NOT " + child_->ToString();
  }

 private:
  ExprPtr child_;
};

/// Evaluates `child` against the slice row[offset, offset+width). Used by
/// the optimizer to hoist a single-table predicate above a join when
/// predicate pushdown is disabled (lesion study).
class ShiftExpr final : public Expr {
 public:
  ShiftExpr(ExprPtr child, int offset, int width)
      : child_(std::move(child)), offset_(offset), width_(width) {}
  Datum Eval(const Row& row) const override {
    Row slice(row.begin() + offset_, row.begin() + offset_ + width_);
    return child_->Eval(slice);
  }
  std::string ToString() const override {
    return "Shift(" + child_->ToString() + ")";
  }

 private:
  ExprPtr child_;
  int offset_;
  int width_;
};

// Builder helpers.
ExprPtr Col(int index, std::string name = "");
ExprPtr Val(Datum value);
ExprPtr Cmp(CompareOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr Eq(ExprPtr lhs, ExprPtr rhs);
ExprPtr Ne(ExprPtr lhs, ExprPtr rhs);
ExprPtr And(std::vector<ExprPtr> children);
ExprPtr Or(std::vector<ExprPtr> children);
ExprPtr Not(ExprPtr child);

}  // namespace tuffy

#endif  // TUFFY_RA_EXPR_H_
