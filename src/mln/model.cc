#include "mln/model.h"

#include "util/string_util.h"

namespace tuffy {

// ------------------------------------------------------------ SymbolTable

ConstantId SymbolTable::Intern(const std::string& symbol,
                               const std::string& type) {
  ConstantId id;
  auto it = ids_.find(symbol);
  if (it != ids_.end()) {
    id = it->second;
  } else {
    id = static_cast<ConstantId>(names_.size());
    ids_[symbol] = id;
    names_.push_back(symbol);
  }
  auto& members = domain_members_[type];
  if (members.emplace(id, true).second) {
    domains_[type].push_back(id);
  }
  return id;
}

ConstantId SymbolTable::Find(const std::string& symbol) const {
  auto it = ids_.find(symbol);
  return it == ids_.end() ? -1 : it->second;
}

const std::vector<ConstantId>& SymbolTable::Domain(
    const std::string& type) const {
  static const std::vector<ConstantId> kEmpty;
  auto it = domains_.find(type);
  return it == domains_.end() ? kEmpty : it->second;
}

bool SymbolTable::InDomain(ConstantId id, const std::string& type) const {
  auto it = domain_members_.find(type);
  return it != domain_members_.end() && it->second.count(id) > 0;
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

Result<PredicateId> MlnProgram::FindPredicate(const std::string& name) const {
  auto it = predicate_ids_.find(name);
  if (it == predicate_ids_.end()) {
    return Status::NotFound(StrFormat("predicate %s", name.c_str()));
  }
  return it->second;
}

Status MlnProgram::AddClause(Clause clause) {
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
      out += StrFormat("%g ", c.weight);
    }
    if (!c.existential_vars.empty()) {
      out += "EXIST ";
      for (size_t i = 0; i < c.existential_vars.size(); ++i) {
        if (i > 0) out += ", ";
        VarId v = c.existential_vars[i];
        out += (static_cast<size_t>(v) < c.var_names.size()
                    ? c.var_names[v]
                    : StrFormat("v%d", v));
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
        const Term& t = lit.args[j];
        if (t.is_var) {
          out += (static_cast<size_t>(t.id) < c.var_names.size()
                      ? c.var_names[t.id]
                      : StrFormat("v%d", t.id));
        } else {
          out += symbols_.SymbolName(t.id);
        }
      }
      out += ")";
    }
    for (const EqualityConstraint& eq : c.equalities) {
      out += " v ";
      auto term_str = [&](const Term& t) {
        return t.is_var ? (static_cast<size_t>(t.id) < c.var_names.size()
                               ? c.var_names[t.id]
                               : StrFormat("v%d", t.id))
                        : symbols_.SymbolName(t.id);
      };
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

void EvidenceDb::Add(GroundAtom atom, bool truth) {
  auto [it, inserted] = truth_.try_emplace(std::move(atom), truth);
  if (!inserted) {
    if (it->second == truth) return;
    Erase(it->first, it->second);
    it->second = truth;
  }
  Append(it->first, truth);
}

bool EvidenceDb::Remove(const GroundAtom& atom) {
  auto it = truth_.find(atom);
  if (it == truth_.end()) return false;
  Erase(it->first, it->second);
  truth_.erase(it);
  return true;
}

Truth EvidenceDb::Lookup(const MlnProgram& program,
                         const GroundAtom& atom) const {
  auto it = truth_.find(atom);
  if (it != truth_.end()) return it->second ? Truth::kTrue : Truth::kFalse;
  if (program.predicate(atom.pred).closed_world) return Truth::kFalse;
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

void EvidenceDb::Append(const GroundAtom& atom, bool truth) {
  Side& s = MutableSide(atom.pred, truth);
  // The first row of this polarity fixes the arity.
  if (s.rows.num_cols() != atom.args.size()) s.rows.Init(atom.args.size());
  if (s.indexed) {
    s.row_of.emplace(atom.args, static_cast<uint32_t>(s.rows.num_rows()));
  }
  s.rows.AppendRow(atom.args);
}

void EvidenceDb::EnsureIndex(Side* side) {
  if (side->indexed) return;
  side->indexed = true;
  side->row_of.reserve(side->rows.num_rows());
  std::vector<ConstantId> args;
  for (size_t r = 0; r < side->rows.num_rows(); ++r) {
    args.clear();
    for (size_t c = 0; c < side->rows.num_cols(); ++c) {
      args.push_back(static_cast<ConstantId>(side->rows.col(c)[r]));
    }
    side->row_of.emplace(args, static_cast<uint32_t>(r));
  }
}

void EvidenceDb::Erase(const GroundAtom& atom, bool truth) {
  Side& s = MutableSide(atom.pred, truth);
  EnsureIndex(&s);
  auto it = s.row_of.find(atom.args);
  if (it == s.row_of.end()) return;
  const uint32_t row = it->second;
  s.row_of.erase(it);
  const size_t last = s.rows.num_rows() - 1;
  if (row != last) {
    // The last row moves into the hole; repoint its index entry first.
    std::vector<ConstantId> moved(s.rows.num_cols());
    for (size_t c = 0; c < moved.size(); ++c) {
      moved[c] = static_cast<ConstantId>(s.rows.col(c)[last]);
    }
    s.row_of[moved] = row;
  }
  s.rows.SwapRemoveRow(row);
}

size_t EvidenceDb::EstimateBytes() const {
  constexpr size_t kNodeOverhead = 64;
  size_t bytes = 0;
  for (const auto& [atom, truth] : truth_) {
    bytes += kNodeOverhead + sizeof(GroundAtom) +
             atom.args.capacity() * sizeof(ConstantId);
  }
  for (const auto& pred_sides : sides_) {
    for (const Side& s : pred_sides) {
      bytes += s.rows.EstimateBytes();
      bytes += s.row_of.size() *
               (kNodeOverhead + s.rows.num_cols() * sizeof(ConstantId));
    }
  }
  return bytes;
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
  // Walks the rows, not the map, so each side keeps the source's row
  // order.
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
