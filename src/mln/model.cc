#include "mln/model.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <charconv>

#include "util/string_util.h"

namespace tuffy {

// ------------------------------------------------------------ SymbolTable

ConstantId SymbolTable::Intern(std::string_view symbol, TypeDomain* domain) {
  bool added = false;
  const ConstantId id = static_cast<ConstantId>(ids_.FindOrAdd(
      std::hash<std::string_view>{}(symbol),
      [&](uint32_t i) { return names_[i] == symbol; }, &added));
  if (added) names_.emplace_back(symbol);
  if (static_cast<size_t>(id) >= domain->is_member.size()) {
    domain->is_member.resize(id + 1, 0);
  }
  if (!domain->is_member[id]) {
    domain->is_member[id] = 1;
    domain->members.push_back(id);
  }
  return id;
}

SymbolTable::TypeDomain* SymbolTable::DomainOf(std::string_view type) {
  auto it = domains_.find(type);
  if (it == domains_.end()) it = domains_.emplace(type, TypeDomain{}).first;
  return &it->second;
}

ConstantId SymbolTable::Find(std::string_view symbol) const {
  const uint32_t id =
      ids_.Find(std::hash<std::string_view>{}(symbol),
                [&](uint32_t i) { return names_[i] == symbol; });
  return id == IdIndex::kAbsent ? -1 : static_cast<ConstantId>(id);
}

const std::vector<ConstantId>& SymbolTable::Domain(
    std::string_view type) const {
  static const std::vector<ConstantId> kEmpty;
  auto it = domains_.find(type);
  return it == domains_.end() ? kEmpty : it->second.members;
}

bool SymbolTable::InDomain(ConstantId id, std::string_view type) const {
  auto it = domains_.find(type);
  if (it == domains_.end() || id < 0) return false;
  const std::vector<uint8_t>& is_member = it->second.is_member;
  return static_cast<size_t>(id) < is_member.size() && is_member[id] != 0;
}

// ------------------------------------------------------------- MlnProgram

Result<PredicateId> MlnProgram::AddPredicate(Predicate pred) {
  if (predicate_ids_.count(pred.name) > 0) {
    return Status::AlreadyExists(
        StrFormat("predicate %s", pred.name.c_str()));
  }
  PredicateId id = static_cast<PredicateId>(predicates_.size());
  pred.id = id;
  predicate_ids_[pred.name] = id;
  predicates_.push_back(std::move(pred));
  return id;
}

Result<PredicateId> MlnProgram::FindPredicate(std::string_view name) const {
  auto it = predicate_ids_.find(name);
  if (it == predicate_ids_.end()) {
    return Status::NotFound(
        StrFormat("predicate %s", std::string(name).c_str()));
  }
  return it->second;
}

Status MlnProgram::AddClause(Clause clause) {
  if (clause.literals.size() > static_cast<size_t>(kMaxClauseLiterals)) {
    return Status::InvalidArgument(
        StrFormat("clause has %zu literals; the limit is %d",
                  clause.literals.size(), kMaxClauseLiterals));
  }
  // Resolve variable types from the predicate signatures; check arity.
  clause.var_types.assign(clause.num_vars, "");
  std::vector<bool> existential(clause.num_vars, false);
  for (VarId v : clause.existential_vars) {
    if (v < 0 || v >= clause.num_vars) {
      return Status::InvalidArgument(
          StrFormat("existential variable id %d out of range", v));
    }
    existential[v] = true;
  }
  for (const Literal& lit : clause.literals) {
    if (lit.pred < 0 || lit.pred >= static_cast<PredicateId>(predicates_.size())) {
      return Status::InvalidArgument("literal references unknown predicate");
    }
    const Predicate& pred = predicates_[lit.pred];
    if (static_cast<int>(lit.args.size()) != pred.arity()) {
      return Status::InvalidArgument(
          StrFormat("predicate %s expects %d args, got %zu",
                    pred.name.c_str(), pred.arity(), lit.args.size()));
    }
    int exist_positions = 0;
    for (size_t i = 0; i < lit.args.size(); ++i) {
      const Term& t = lit.args[i];
      if (!t.is_var) continue;
      if (t.id < 0 || t.id >= clause.num_vars) {
        return Status::InvalidArgument(
            StrFormat("variable id %d out of range", t.id));
      }
      if (existential[t.id]) ++exist_positions;
      std::string& vt = clause.var_types[t.id];
      if (vt.empty()) {
        vt = pred.arg_types[i];
      } else if (vt != pred.arg_types[i]) {
        return Status::InvalidArgument(StrFormat(
            "variable %s used with types %s and %s",
            (static_cast<size_t>(t.id) < clause.var_names.size()
                 ? clause.var_names[t.id].c_str()
                 : "?"),
            vt.c_str(), pred.arg_types[i].c_str()));
      }
    }
    if (exist_positions > kMaxExistentialPositions) {
      return Status::InvalidArgument(StrFormat(
          "literal over %s has %d existential argument positions; the limit "
          "is %d",
          pred.name.c_str(), exist_positions, kMaxExistentialPositions));
    }
    if (exist_positions > 0 && pred.arity() > kMaxExistentialArity) {
      return Status::InvalidArgument(StrFormat(
          "existential literal over %s has %d arguments; the limit is %d",
          pred.name.c_str(), pred.arity(), kMaxExistentialArity));
    }
  }
  // Variables appearing only in equality constraints have no type source.
  for (const EqualityConstraint& eq : clause.equalities) {
    for (const Term* t : {&eq.lhs, &eq.rhs}) {
      if (t->is_var && (t->id < 0 || t->id >= clause.num_vars)) {
        return Status::InvalidArgument("equality variable out of range");
      }
      if (t->is_var && clause.var_types[t->id].empty()) {
        return Status::InvalidArgument(
            "equality variable does not appear in any literal");
      }
    }
  }
  if (clause.literals.empty()) {
    return Status::InvalidArgument("clause has no literals");
  }
  // Every variable must be typed, i.e. appear in at least one literal;
  // an unused variable would have no domain to range over.
  for (VarId v = 0; v < clause.num_vars; ++v) {
    if (clause.var_types[v].empty()) {
      return Status::InvalidArgument(StrFormat(
          "variable %s does not appear in any literal",
          static_cast<size_t>(v) < clause.var_names.size()
              ? clause.var_names[v].c_str()
              : "?"));
    }
  }
  if (clause.rule_id < 0) clause.rule_id = static_cast<int>(clauses_.size());
  clauses_.push_back(std::move(clause));
  return Status::OK();
}

std::string ConstantLiteral(const std::string& symbol) {
  const auto word = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  const auto digit = [](char c) {
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
  };
  if (!symbol.empty()) {
    const bool capitalized =
        std::isupper(static_cast<unsigned char>(symbol[0])) ||
        symbol[0] == '_';
    if (capitalized && std::all_of(symbol.begin(), symbol.end(), word)) {
      return symbol;
    }
    if (std::all_of(symbol.begin(), symbol.end(), digit)) return symbol;
  }
  const char quote = symbol.find('"') == std::string::npos ? '"' : '\'';
  return quote + symbol + quote;
}

std::string MlnProgram::ToString() const {
  std::string out;
  for (const Predicate& p : predicates_) {
    if (p.closed_world) out += "*";
    out += p.name + "(";
    for (int i = 0; i < p.arity(); ++i) {
      if (i > 0) out += ", ";
      out += p.arg_types[i];
    }
    out += ")\n";
  }
  for (const Clause& c : clauses_) {
    if (!c.hard) {
      // The shortest text that parses back to the same double.
      char buf[64];
      out.append(buf, std::to_chars(buf, buf + sizeof(buf), c.weight).ptr);
      out += " ";
    }
    const auto term_str = [&](const Term& t) {
      if (!t.is_var) return ConstantLiteral(symbols_.SymbolName(t.id));
      return static_cast<size_t>(t.id) < c.var_names.size()
                 ? c.var_names[t.id]
                 : StrFormat("v%d", t.id);
    };
    if (!c.existential_vars.empty()) {
      out += "EXIST ";
      for (size_t i = 0; i < c.existential_vars.size(); ++i) {
        if (i > 0) out += ", ";
        out += term_str(Term::Var(c.existential_vars[i]));
      }
      out += " ";
    }
    for (size_t i = 0; i < c.literals.size(); ++i) {
      if (i > 0) out += " v ";
      const Literal& lit = c.literals[i];
      if (!lit.positive) out += "!";
      out += predicates_[lit.pred].name + "(";
      for (size_t j = 0; j < lit.args.size(); ++j) {
        if (j > 0) out += ", ";
        out += term_str(lit.args[j]);
      }
      out += ")";
    }
    for (const EqualityConstraint& eq : c.equalities) {
      out += " v ";
      out += term_str(eq.lhs);
      out += eq.equal ? " = " : " != ";
      out += term_str(eq.rhs);
    }
    if (c.hard) out += ".";
    out += "\n";
  }
  return out;
}

// -------------------------------------------------------------- EvidenceDb

bool EvidenceDb::Side::RowHolds(uint32_t row,
                                const std::vector<ConstantId>& args) const {
  for (size_t c = 0; c < args.size(); ++c) {
    if (rows.col(c)[row] != args[c]) return false;
  }
  return true;
}

uint32_t EvidenceDb::Side::Find(size_t hash,
                                const std::vector<ConstantId>& args) const {
  if (rows.num_rows() == 0 || rows.num_cols() != args.size()) {
    return IdIndex::kAbsent;
  }
  return index.Find(hash, [&](uint32_t row) { return RowHolds(row, args); });
}

void EvidenceDb::Add(const GroundAtom& atom, bool truth) {
  const size_t hash = GroundAtomHash_ArgsOnly{}(atom.args);
  Side& side = MutableSide(atom.pred, truth);
  // The first row of a relation fixes its arity; rows are never wiped.
  if (side.rows.num_rows() == 0 && side.rows.num_cols() != atom.args.size()) {
    side.rows.Init(atom.args.size());
  }
  assert(side.rows.num_cols() == atom.args.size());
  bool added = false;
  side.index.FindOrAdd(
      hash, [&](uint32_t row) { return side.RowHolds(row, atom.args); },
      &added);
  if (!added) return;  // already recorded with this truth
  side.rows.AppendRow(atom.args);
  ++num_rows_;
  // A truth flip: the atom leaves the other relation.
  Side& other = sides_[atom.pred][truth ? 0 : 1];
  const uint32_t row = other.Find(hash, atom.args);
  if (row != IdIndex::kAbsent) {
    other.SwapRemove(row);
    --num_rows_;
  }
}

bool EvidenceDb::Remove(const GroundAtom& atom) {
  if (atom.pred < 0 || static_cast<size_t>(atom.pred) >= sides_.size()) {
    return false;
  }
  const size_t hash = GroundAtomHash_ArgsOnly{}(atom.args);
  for (Side& side : sides_[atom.pred]) {
    const uint32_t row = side.Find(hash, atom.args);
    if (row == IdIndex::kAbsent) continue;
    side.SwapRemove(row);
    --num_rows_;
    return true;
  }
  return false;
}

Truth EvidenceDb::Explicit(const GroundAtom& atom) const {
  if (atom.pred < 0 || static_cast<size_t>(atom.pred) >= sides_.size()) {
    return Truth::kUnknown;
  }
  const std::array<Side, 2>& sides = sides_[atom.pred];
  if (sides[0].rows.num_rows() == 0 && sides[1].rows.num_rows() == 0) {
    return Truth::kUnknown;
  }
  const size_t hash = GroundAtomHash_ArgsOnly{}(atom.args);
  if (sides[1].Find(hash, atom.args) != IdIndex::kAbsent) return Truth::kTrue;
  if (sides[0].Find(hash, atom.args) != IdIndex::kAbsent) return Truth::kFalse;
  return Truth::kUnknown;
}

const IdTable& EvidenceDb::rows(PredicateId pred, bool truth) const {
  static const IdTable kNoRows;
  if (pred < 0 || static_cast<size_t>(pred) >= sides_.size()) return kNoRows;
  return sides_[pred][truth ? 1 : 0].rows;
}

EvidenceDb::Side& EvidenceDb::MutableSide(PredicateId pred, bool truth) {
  if (static_cast<size_t>(pred) >= sides_.size()) sides_.resize(pred + 1);
  return sides_[pred][truth ? 1 : 0];
}

size_t EvidenceDb::EstimateBytes() const {
  size_t bytes = 0;
  for (const auto& pred_sides : sides_) {
    for (const Side& s : pred_sides) {
      bytes += s.rows.EstimateBytes() + s.index.EstimateBytes();
    }
  }
  return bytes;
}

EvidenceDb::EntryIterator::value_type EvidenceDb::EntryIterator::operator*()
    const {
  const IdTable& rows = db_->sides_[pred_][side_].rows;
  value_type out;
  out.first.pred = static_cast<PredicateId>(pred_);
  out.first.args.resize(rows.num_cols());
  for (size_t c = 0; c < rows.num_cols(); ++c) {
    out.first.args[c] = static_cast<ConstantId>(rows.col(c)[row_]);
  }
  out.second = side_ == 1;
  return out;
}

void EvidenceDb::EntryIterator::SkipEmpty() {
  while (pred_ < db_->sides_.size() &&
         row_ >= db_->sides_[pred_][side_].rows.num_rows()) {
    row_ = 0;
    if (++side_ == 2) {
      side_ = 0;
      ++pred_;
    }
  }
}

Result<TrainingSplit> SplitEvidenceForLearning(
    const MlnProgram& program, const EvidenceDb& full,
    const std::vector<std::string>& query_predicates) {
  if (query_predicates.empty()) {
    return Status::InvalidArgument("no query predicates to learn over");
  }
  std::vector<uint8_t> is_query(program.num_predicates(), 0);
  for (const std::string& name : query_predicates) {
    TUFFY_ASSIGN_OR_RETURN(PredicateId pid, program.FindPredicate(name));
    if (program.predicate(pid).closed_world) {
      return Status::InvalidArgument(StrFormat(
          "query predicate %s is closed-world: its unknown atoms would "
          "resolve to false during grounding and never be learnable",
          name.c_str()));
    }
    is_query[pid] = 1;
  }
  // Walks the rows in order, so each side keeps the source's row order.
  TrainingSplit split;
  GroundAtom atom;
  for (PredicateId p = 0;
       p < static_cast<PredicateId>(program.num_predicates()); ++p) {
    EvidenceDb& dest = is_query[p] ? split.labels : split.evidence;
    atom.pred = p;
    for (bool truth : {false, true}) {
      const IdTable& rows = full.rows(p, truth);
      atom.args.resize(rows.num_cols());
      for (size_t r = 0; r < rows.num_rows(); ++r) {
        for (size_t c = 0; c < rows.num_cols(); ++c) {
          atom.args[c] = static_cast<ConstantId>(rows.col(c)[r]);
        }
        dest.Add(atom, truth);
      }
    }
  }
  return split;
}

}  // namespace tuffy
