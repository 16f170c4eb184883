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
  if (listener_ == nullptr) {
    truth_[std::move(atom)] = truth;
    return;
  }
  auto [it, inserted] = truth_.try_emplace(std::move(atom), truth);
  const bool had_old = !inserted;
  const bool old_truth = it->second;
  it->second = truth;
  listener_->OnEvidenceSet(it->first, truth, had_old, old_truth);
}

bool EvidenceDb::Remove(const GroundAtom& atom) {
  auto it = truth_.find(atom);
  if (it == truth_.end()) return false;
  const bool old_truth = it->second;
  truth_.erase(it);
  if (listener_ != nullptr) listener_->OnEvidenceErased(atom, old_truth);
  return true;
}

Truth EvidenceDb::Lookup(const MlnProgram& program,
                         const GroundAtom& atom) const {
  auto it = truth_.find(atom);
  if (it != truth_.end()) return it->second ? Truth::kTrue : Truth::kFalse;
  if (program.predicate(atom.pred).closed_world) return Truth::kFalse;
  return Truth::kUnknown;
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
  TrainingSplit split;
  for (const auto& [atom, truth] : full.entries()) {
    if (is_query[atom.pred]) {
      split.labels.Add(atom, truth);
    } else {
      split.evidence.Add(atom, truth);
    }
  }
  return split;
}

}  // namespace tuffy
