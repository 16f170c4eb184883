#ifndef TUFFY_MLN_MODEL_H_
#define TUFFY_MLN_MODEL_H_

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace tuffy {

using PredicateId = int32_t;
using ConstantId = int32_t;
/// Variables are numbered within a clause, starting at 0.
using VarId = int32_t;

constexpr PredicateId kInvalidPredicate = -1;

/// A first-order predicate symbol, e.g. wrote(Author, Paper). Predicates
/// marked closed-world are fully specified by the evidence: any atom not
/// listed is false (the usual assumption for relations like refers).
struct Predicate {
  PredicateId id = kInvalidPredicate;
  std::string name;
  /// Type (domain) name of each argument position.
  std::vector<std::string> arg_types;
  bool closed_world = false;

  int arity() const { return static_cast<int>(arg_types.size()); }
};

/// A term: either a clause-local variable or an interned constant.
struct Term {
  bool is_var = true;
  int32_t id = 0;  // VarId if is_var, else ConstantId

  static Term Var(VarId v) { return Term{true, v}; }
  static Term Const(ConstantId c) { return Term{false, c}; }

  bool operator==(const Term& other) const {
    return is_var == other.is_var && id == other.id;
  }
};

/// A literal in a clause: possibly negated predicate over terms.
struct Literal {
  PredicateId pred = kInvalidPredicate;
  bool positive = true;
  std::vector<Term> args;
};

/// A (dis)equality disjunct between two terms, e.g. the `c1 = c2` head of
/// rule F1 in the paper. Resolved at grounding time: a true disjunct
/// satisfies the ground clause outright; a false one simply disappears.
struct EqualityConstraint {
  Term lhs;
  Term rhs;
  /// True for `lhs = rhs` as a disjunct; false for `lhs != rhs`.
  bool equal = true;
};

/// A weighted first-order clause (disjunction of literals). Hard clauses
/// (weight +inf in the source syntax) must hold in every possible world.
/// Negative weights mean the clause is *penalized when satisfied*
/// (Section 2.2: a ground clause with w < 0 is violated if it is true).
struct Clause {
  std::vector<Literal> literals;
  std::vector<EqualityConstraint> equalities;
  double weight = 0.0;
  bool hard = false;
  /// Number of distinct variables; variables are 0..num_vars-1.
  int num_vars = 0;
  /// Variable names for diagnostics, indexed by VarId.
  std::vector<std::string> var_names;
  /// Variables that are existentially quantified (e.g. F4's `exist x`).
  std::vector<VarId> existential_vars;
  /// Type name of each variable, resolved from predicate signatures.
  std::vector<std::string> var_types;
  /// Stable rule id for reporting.
  int rule_id = -1;
};

/// Interns constant symbols and tracks per-type domains.
class SymbolTable {
 public:
  /// Interns `symbol`, registering it in the domain of `type`.
  ConstantId Intern(const std::string& symbol, const std::string& type);

  /// Looks up an existing symbol; returns -1 if unknown.
  ConstantId Find(const std::string& symbol) const;

  const std::string& SymbolName(ConstantId id) const { return names_[id]; }
  size_t num_constants() const { return names_.size(); }

  /// All constants registered under `type` (empty vector if none).
  const std::vector<ConstantId>& Domain(const std::string& type) const;

  /// True when `id` is registered under `type` (false for any id outside
  /// the table, negative ones included).
  bool InDomain(ConstantId id, const std::string& type) const;

 private:
  std::unordered_map<std::string, ConstantId> ids_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::vector<ConstantId>> domains_;
  std::unordered_map<std::string, std::unordered_map<ConstantId, bool>>
      domain_members_;
};

/// A parsed MLN program: predicate declarations plus weighted clauses,
/// with a shared symbol table (Figure 1 of the paper).
class MlnProgram {
 public:
  /// Declares a predicate; fails on duplicate names.
  Result<PredicateId> AddPredicate(Predicate pred);

  Result<PredicateId> FindPredicate(const std::string& name) const;

  const Predicate& predicate(PredicateId id) const { return predicates_[id]; }
  const std::vector<Predicate>& predicates() const { return predicates_; }
  size_t num_predicates() const { return predicates_.size(); }

  /// Adds a clause; resolves var_types from predicate signatures.
  Status AddClause(Clause clause);
  const std::vector<Clause>& clauses() const { return clauses_; }

  /// Overwrites the weight of clause `idx` — the mutation weight
  /// learning applies between training and inference. The hard flag is
  /// not touched: hard clauses stay hard regardless of weight.
  void SetClauseWeight(size_t idx, double weight) {
    clauses_[idx].weight = weight;
  }

  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }

  std::string ToString() const;

 private:
  std::vector<Predicate> predicates_;
  std::unordered_map<std::string, PredicateId> predicate_ids_;
  std::vector<Clause> clauses_;
  SymbolTable symbols_;
};

/// A ground atom: predicate applied to constants.
struct GroundAtom {
  PredicateId pred = kInvalidPredicate;
  std::vector<ConstantId> args;

  bool operator==(const GroundAtom& other) const {
    return pred == other.pred && args == other.args;
  }
};

/// Hash over a bare argument vector (used by index structures that key
/// on partial argument tuples).
struct GroundAtomHash_ArgsOnly {
  size_t operator()(const std::vector<ConstantId>& args) const {
    size_t h = 0x9E3779B97F4A7C15ull;
    for (ConstantId c : args) {
      h = h * 1315423911u ^ std::hash<int32_t>{}(c);
    }
    return h;
  }
};

struct GroundAtomHash {
  size_t operator()(const GroundAtom& a) const {
    size_t h = std::hash<int32_t>{}(a.pred);
    for (ConstantId c : a.args) {
      h = h * 1315423911u ^ std::hash<int32_t>{}(c);
    }
    return h;
  }
};

/// Three-valued evidence truth (the `truth` attribute of Section 3.1's
/// atom tables; here the side table an atom's row lives in).
enum class Truth : int8_t { kFalse = 0, kTrue = 1, kUnknown = 2 };

/// Observer of explicit evidence mutations. Derived structures that
/// mirror the evidence (the per-predicate side tables in
/// `storage/evidence_side_tables.h`) attach one of these so every
/// Add/Remove keeps them in sync incrementally — no full-evidence rescans
/// on the serving path.
class EvidenceListener {
 public:
  virtual ~EvidenceListener() = default;

  /// An explicit entry was inserted or overwritten. `had_old`/`old_truth`
  /// describe the previous explicit entry for the atom (old_truth is
  /// meaningful only when had_old).
  virtual void OnEvidenceSet(const GroundAtom& atom, bool truth,
                             bool had_old, bool old_truth) = 0;

  /// An explicit entry was erased.
  virtual void OnEvidenceErased(const GroundAtom& atom, bool old_truth) = 0;
};

/// The evidence database: known-true and known-false ground atoms.
class EvidenceDb {
 public:
  EvidenceDb() = default;

  /// Copying transfers the entries only, never the listener: a mirror is
  /// in sync with exactly one database instance, so the copy starts
  /// detached (and an attached destination would silently desync — the
  /// listener sees no bulk-replace notification). Attach after the
  /// contents are in place.
  EvidenceDb(const EvidenceDb& other) : truth_(other.truth_) {}
  EvidenceDb& operator=(const EvidenceDb& other) {
    truth_ = other.truth_;
    listener_ = nullptr;
    return *this;
  }
  // Moves must stay O(1) (datasets hand their EvidenceDb around by
  // value); like copies, they never carry or preserve a listener — and
  // the moved-from side is detached too, since its mirror just lost the
  // contents without notification.
  EvidenceDb(EvidenceDb&& other) noexcept : truth_(std::move(other.truth_)) {
    other.listener_ = nullptr;
  }
  EvidenceDb& operator=(EvidenceDb&& other) noexcept {
    truth_ = std::move(other.truth_);
    listener_ = nullptr;
    other.listener_ = nullptr;
    return *this;
  }

  /// Attaches (or with nullptr detaches) the mutation observer. The
  /// caller must have brought the listener in sync with the current
  /// contents first (see EvidenceSideTables::Rebuild).
  void SetListener(EvidenceListener* listener) { listener_ = listener; }

  /// Records evidence; later entries overwrite earlier ones.
  void Add(GroundAtom atom, bool truth);

  /// Retracts an explicit evidence entry, returning true if one existed.
  /// The atom reverts to unknown (or to false, under a closed-world
  /// predicate's default). This is the retraction half of a serving
  /// session's evidence delta.
  bool Remove(const GroundAtom& atom);

  /// Evidence lookup honoring the closed-world assumption for predicates
  /// marked closed_world (absent => false).
  Truth Lookup(const MlnProgram& program, const GroundAtom& atom) const;

  size_t num_evidence() const { return truth_.size(); }

  /// Iterates all explicit evidence atoms.
  const std::unordered_map<GroundAtom, bool, GroundAtomHash>& entries() const {
    return truth_;
  }

 private:
  std::unordered_map<GroundAtom, bool, GroundAtomHash> truth_;
  EvidenceListener* listener_ = nullptr;
};

/// A fully-labeled database split for discriminative weight learning:
/// `evidence` holds the non-query relations (the conditioned-on side X),
/// `labels` the query relations (the training targets Y). Grounding for
/// learning runs against `evidence` only, so the query atoms stay
/// unknown and appear in the ground MRF; `labels` then provides the
/// data-world truth assignment for the satisfied-grounding counts.
struct TrainingSplit {
  EvidenceDb evidence;
  EvidenceDb labels;
};

/// Splits `full` by predicate: entries of `query_predicates` go to
/// labels, everything else to evidence. Fails on an unknown predicate
/// name, an empty query set, or a closed-world query predicate (closed-
/// world query atoms would be resolved to false during grounding and
/// never reach the MRF, making them unlearnable).
Result<TrainingSplit> SplitEvidenceForLearning(
    const MlnProgram& program, const EvidenceDb& full,
    const std::vector<std::string>& query_predicates);

}  // namespace tuffy

#endif  // TUFFY_MLN_MODEL_H_
