#include "ground/ground_clause.h"

#include <algorithm>

namespace tuffy {

AtomId AtomStore::GetOrCreate(const GroundAtom& atom) {
  bool added = false;
  const AtomId id = index_.FindOrAdd(
      GroundAtomHash{}(atom),
      [&](uint32_t i) { return atoms_[i] == atom; }, &added);
  if (added) atoms_.push_back(atom);
  return id;
}

bool AtomStore::Find(const GroundAtom& atom, AtomId* out) const {
  const uint32_t id = index_.Find(
      GroundAtomHash{}(atom), [&](uint32_t i) { return atoms_[i] == atom; });
  if (id == IdIndex::kAbsent) return false;
  *out = id;
  return true;
}

std::string AtomStore::AtomName(const MlnProgram& program,
                                const GroundAtom& atom) {
  std::string out = program.predicate(atom.pred).name + "(";
  for (size_t i = 0; i < atom.args.size(); ++i) {
    if (i > 0) out += ", ";
    out += program.symbols().SymbolName(atom.args[i]);
  }
  out += ")";
  return out;
}

size_t GroundClauseStore::AddFromScratch(std::vector<Lit>* lits,
                                         double weight, bool hard,
                                         int rule_id) {
  std::sort(lits->begin(), lits->end());
  lits->erase(std::unique(lits->begin(), lits->end()), lits->end());
  // Drop tautologies (a clause containing both a and !a is always true).
  for (size_t i = 0; i + 1 < lits->size(); ++i) {
    for (size_t j = i + 1; j < lits->size(); ++j) {
      if ((*lits)[i] == -(*lits)[j]) return kTautology;
    }
  }
  bool added = false;
  const size_t idx = index_.FindOrAdd(
      LitVectorHash{}(*lits),
      [&](uint32_t i) { return clauses_[i].lits == *lits; }, &added);
  if (!added) {
    GroundClause& existing = clauses_[idx];
    existing.weight += weight;
    existing.hard = existing.hard || hard;
    AddContribution(idx, rule_id);
    return idx;
  }
  GroundClause clause;
  clause.lits = *lits;  // copy: the scratch buffer stays with the caller
  clause.weight = weight;
  clause.hard = hard;
  clause.rule_id = rule_id;
  clauses_.push_back(std::move(clause));
  first_contrib_.push_back(RuleContribution{rule_id, 1});
  return idx;
}

size_t GroundClauseStore::Add(GroundClause clause) {
  return AddFromScratch(&clause.lits, clause.weight, clause.hard,
                        clause.rule_id);
}

void GroundClauseStore::AddContribution(size_t idx, int rule_id) {
  RuleContribution& first = first_contrib_[idx];
  if (first.rule_id == rule_id) {
    ++first.count;
    return;
  }
  std::vector<RuleContribution>& extras = extra_contribs_[idx];
  for (RuleContribution& rc : extras) {
    if (rc.rule_id == rule_id) {
      ++rc.count;
      return;
    }
  }
  extras.push_back(RuleContribution{rule_id, 1});
}

size_t GroundClauseStore::EstimateBytes() const {
  size_t bytes = 0;
  for (const GroundClause& c : clauses_) {
    bytes += sizeof(GroundClause) + c.lits.size() * sizeof(Lit);
  }
  bytes += first_contrib_.size() * sizeof(RuleContribution);
  for (const auto& [idx, extras] : extra_contribs_) {
    bytes += sizeof(extras) + extras.capacity() * sizeof(RuleContribution);
  }
  return bytes;
}

}  // namespace tuffy
