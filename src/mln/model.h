#ifndef TUFFY_MLN_MODEL_H_
#define TUFFY_MLN_MODEL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ra/id_table.h"
#include "util/id_index.h"
#include "util/result.h"
#include "util/status.h"

namespace tuffy {

using PredicateId = int32_t;
using ConstantId = int32_t;
/// Variables are numbered within a clause, starting at 0.
using VarId = int32_t;

constexpr PredicateId kInvalidPredicate = -1;

/// Limits on an existential literal, one with an existentially quantified
/// variable among its arguments. Grounding expands at most this many
/// existential argument positions per literal, and keys a closed-world
/// literal's pattern counts by a 32-bit mask of its bound positions.
/// MlnProgram::AddClause refuses a literal past either limit.
constexpr int kMaxExistentialPositions = 8;
constexpr int kMaxExistentialArity = 32;
/// Most literals in one clause. Grounding keys per-literal flags by a
/// 64-bit mask (bit k is literal k), so every literal has a bit;
/// MlnProgram::AddClause refuses a wider clause.
constexpr int kMaxClauseLiterals = 64;

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

/// Hashes std::string keys and std::string_view probes alike, so a map
/// keyed by std::string is searched with a view and no copy.
struct StringViewHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// Interns constant symbols and tracks per-type domains. Each symbol is
/// held once, in names_; the IdIndex over it holds only slots and cached
/// hashes, and its probes compare against names_ in place. Ids follow
/// first-intern order.
class SymbolTable {
 public:
  /// One type's domain: its members in first-intern order, and a
  /// membership flag per ConstantId (ids past the end are not members).
  struct TypeDomain {
    std::vector<ConstantId> members;
    std::vector<uint8_t> is_member;
  };

  /// Interns `symbol`, registering it in the domain of `type`.
  ConstantId Intern(std::string_view symbol, std::string_view type) {
    return Intern(symbol, DomainOf(type));
  }

  /// Interns `symbol` into `domain`, a handle from DomainOf, so a caller
  /// interning many constants of one type resolves the type once.
  ConstantId Intern(std::string_view symbol, TypeDomain* domain);

  /// The domain of `type`, created empty when new. The handle stays valid
  /// as long as this table does.
  TypeDomain* DomainOf(std::string_view type);

  /// Looks up an existing symbol; returns -1 if unknown.
  ConstantId Find(std::string_view symbol) const;

  const std::string& SymbolName(ConstantId id) const { return names_[id]; }
  size_t num_constants() const { return names_.size(); }

  /// All constants registered under `type` (empty vector if none).
  const std::vector<ConstantId>& Domain(std::string_view type) const;

  /// True when `id` is registered under `type` (false for any id outside
  /// the table, negative ones included).
  bool InDomain(ConstantId id, std::string_view type) const;

 private:
  /// Symbol names by ConstantId: the only copy of each symbol.
  std::vector<std::string> names_;
  /// Ids are ConstantIds, keyed by the symbol's std::hash.
  IdIndex ids_;
  std::unordered_map<std::string, TypeDomain, StringViewHash, std::equal_to<>>
      domains_;
};

/// The source text of constant `symbol`, as ParseProgram and
/// ParseEvidence read it back: bare when it lexes as that same constant
/// (an uppercase letter or `_`, then letters, digits and `_`; or all
/// digits), otherwise quoted, with `'` when it contains `"`.
std::string ConstantLiteral(const std::string& symbol);

/// A parsed MLN program: predicate declarations plus weighted clauses,
/// with a shared symbol table (Figure 1 of the paper).
class MlnProgram {
 public:
  /// Declares a predicate; fails on duplicate names.
  Result<PredicateId> AddPredicate(Predicate pred);

  Result<PredicateId> FindPredicate(std::string_view name) const;

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

  /// Program text that ParseProgram reads back to the same predicates
  /// and clauses: constants through ConstantLiteral, weights in their
  /// shortest round-tripping form.
  std::string ToString() const;

 private:
  std::vector<Predicate> predicates_;
  std::unordered_map<std::string, PredicateId, StringViewHash,
                     std::equal_to<>>
      predicate_ids_;
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

/// Hash over a bare argument vector: the key of EvidenceDb's per-relation
/// IdIndex (which mixes before masking) and of index structures that key
/// on partial argument tuples.
struct GroundAtomHash_ArgsOnly {
  size_t operator()(const std::vector<ConstantId>& args) const {
    size_t h = 0x9E3779B97F4A7C15ull;
    for (ConstantId c : args) {
      h = h * 1315423911u ^ std::hash<int32_t>{}(c);
    }
    return h;
  }
};

/// Hash over a whole ground atom. Its low bits depend only on the
/// predicate's and arguments' low bits, so a power-of-two table must mix
/// before masking (AtomStore's IdIndex does). Its values order no
/// evidence scan, but they must not change: they order serving's
/// per-delta net-op fold (DeltaGrounder::ApplyDelta), which decides the
/// order a delta's atoms enter the delta relation and EvidenceDb's rows,
/// so they feed binding order and session atom ids.
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
/// atom tables; here the relation an atom's row lives in).
enum class Truth : int8_t { kFalse = 0, kTrue = 1, kUnknown = 2 };

/// The evidence database: known-true and known-false ground atoms, stored
/// once as relations. For every predicate it holds one columnar relation
/// of the explicitly-true atoms and one of the explicitly-false atoms
/// (arg0..argK-1, no truth column: polarity is the relation). These are
/// the relations grounding reads in place:
///
/// - a closed-world predicate's true rows are what its binding literals
///   join (bottom-up) or unify against (top-down);
/// - anti-join pruning probes the true and false rows;
/// - the existential pattern counts and serving's delta unions read one
///   predicate's true rows.
///
/// Point lookups (Explicit, Lookup, Add, Remove) go through one IdIndex
/// per relation whose ids are its row numbers, keyed by
/// GroundAtomHash_ArgsOnly and compared in place against the columns, so
/// no atom is stored twice. Add and Remove update rows and index
/// together: a new atom is appended, a removal swaps the relation's last
/// row into the hole, so row order is insertion order up to removals and
/// depends on the mutation history alone. Plans, candidate order and
/// atom ids read it.
///
/// Thread safety: mutation must be single-threaded; concurrent reads
/// (parallel per-rule grounding, sessions opened over one database) are
/// safe once mutation has stopped.
class EvidenceDb {
 public:
  class EntryIterator;
  class Entries;

  /// Records evidence; later entries overwrite earlier ones. Atoms of one
  /// predicate share its arity.
  void Add(const GroundAtom& atom, bool truth);

  /// Retracts an explicit evidence entry, returning true if one existed.
  /// The atom reverts to unknown (or to false, under a closed-world
  /// predicate's default). This is the retraction half of a serving
  /// session's evidence delta.
  bool Remove(const GroundAtom& atom);

  /// The atom's explicit evidence: kTrue or kFalse when it has a row,
  /// kUnknown when it has none (no closed-world default applied).
  Truth Explicit(const GroundAtom& atom) const;

  /// Evidence lookup honoring the closed-world assumption for predicates
  /// marked closed_world (absent => false).
  Truth Lookup(const MlnProgram& program, const GroundAtom& atom) const {
    const Truth t = Explicit(atom);
    if (t != Truth::kUnknown) return t;
    return program.predicate(atom.pred).closed_world ? Truth::kFalse
                                                     : Truth::kUnknown;
  }

  /// Total rows over every relation.
  size_t num_evidence() const { return num_rows_; }

  /// Every explicit evidence atom with its truth, by value: predicate id
  /// ascending, then false rows before true rows, each in row order.
  Entries entries() const;

  /// The explicit evidence rows of `pred` whose truth is `truth`, in row
  /// order. Zero columns when the predicate has never had such a row. The
  /// reference is valid until the next Add or Remove.
  const IdTable& rows(PredicateId pred, bool truth) const;

  /// Resident footprint: the relations' columns, index slots and cached
  /// hashes (admission-control accounting, not malloc truth).
  size_t EstimateBytes() const;

 private:
  /// One relation and its index; index ids are row numbers.
  struct Side {
    IdTable rows;
    IdIndex index;

    /// True when row `row` holds `args` (of the relation's arity).
    bool RowHolds(uint32_t row, const std::vector<ConstantId>& args) const;
    /// The row holding `args` (hashed to `hash`), or IdIndex::kAbsent.
    uint32_t Find(size_t hash, const std::vector<ConstantId>& args) const;
    void SwapRemove(uint32_t row) {
      index.SwapRemove(row);
      rows.SwapRemoveRow(row);
    }
  };

  Side& MutableSide(PredicateId pred, bool truth);

  /// [pred][truth]: [0] explicit-false rows, [1] explicit-true rows.
  std::vector<std::array<Side, 2>> sides_;
  size_t num_rows_ = 0;
};

/// Input iterator behind EvidenceDb::entries(): a position (predicate,
/// polarity, row) that builds each pair on dereference.
class EvidenceDb::EntryIterator {
 public:
  using iterator_category = std::input_iterator_tag;
  using value_type = std::pair<GroundAtom, bool>;
  using difference_type = std::ptrdiff_t;
  using pointer = void;
  using reference = value_type;

  EntryIterator(const EvidenceDb* db, size_t pred) : db_(db), pred_(pred) {
    SkipEmpty();
  }

  value_type operator*() const;
  EntryIterator& operator++() {
    ++row_;
    SkipEmpty();
    return *this;
  }
  EntryIterator operator++(int) {
    EntryIterator old = *this;
    ++*this;
    return old;
  }
  bool operator==(const EntryIterator& o) const {
    return pred_ == o.pred_ && side_ == o.side_ && row_ == o.row_;
  }
  bool operator!=(const EntryIterator& o) const { return !(*this == o); }

 private:
  /// Advances past exhausted relations to the next row, or to the end.
  void SkipEmpty();

  const EvidenceDb* db_;
  size_t pred_;
  size_t side_ = 0;
  size_t row_ = 0;
};

class EvidenceDb::Entries {
 public:
  explicit Entries(const EvidenceDb* db) : db_(db) {}
  EntryIterator begin() const { return EntryIterator(db_, 0); }
  EntryIterator end() const { return EntryIterator(db_, db_->sides_.size()); }

 private:
  const EvidenceDb* db_;
};

inline EvidenceDb::Entries EvidenceDb::entries() const {
  return Entries(this);
}

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
