#include "ground/ground_clause.h"

#include <algorithm>

namespace tuffy {

AtomId AtomStore::GetOrCreate(const GroundAtom& atom) {
  auto it = ids_.find(atom);
  if (it != ids_.end()) return it->second;
  AtomId id = static_cast<AtomId>(atoms_.size());
  ids_[atom] = id;
  atoms_.push_back(atom);
  return id;
}

bool AtomStore::Find(const GroundAtom& atom, AtomId* out) const {
  auto it = ids_.find(atom);
  if (it == ids_.end()) return false;
  *out = it->second;
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

size_t GroundClauseStore::FindSlot(const std::vector<Lit>& lits,
                                   size_t hash) const {
  size_t slot = hash & index_mask_;
  while (index_slots_[slot] != 0) {
    const size_t idx = index_slots_[slot] - 1;
    if (hashes_[idx] == hash && clauses_[idx].lits == lits) return slot;
    slot = (slot + 1) & index_mask_;
  }
  return slot;
}

void GroundClauseStore::GrowIndex() {
  const size_t cap = index_slots_.empty() ? 1024 : index_slots_.size() * 2;
  index_slots_.assign(cap, 0);
  index_mask_ = cap - 1;
  for (size_t i = 0; i < clauses_.size(); ++i) {
    size_t slot = hashes_[i] & index_mask_;
    while (index_slots_[slot] != 0) slot = (slot + 1) & index_mask_;
    index_slots_[slot] = static_cast<uint32_t>(i) + 1;
  }
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
  // Keep load factor under 1/2.
  if ((clauses_.size() + 1) * 2 > index_slots_.size()) GrowIndex();
  const size_t hash = LitVectorHash{}(*lits);
  const size_t slot = FindSlot(*lits, hash);
  if (index_slots_[slot] != 0) {
    const size_t idx = index_slots_[slot] - 1;
    GroundClause& existing = clauses_[idx];
    existing.weight += weight;
    existing.hard = existing.hard || hard;
    AddContribution(idx, rule_id);
    return idx;
  }
  size_t idx = clauses_.size();
  index_slots_[slot] = static_cast<uint32_t>(idx) + 1;
  GroundClause clause;
  clause.lits = *lits;  // copy: the scratch buffer stays with the caller
  clause.weight = weight;
  clause.hard = hard;
  clause.rule_id = rule_id;
  clauses_.push_back(std::move(clause));
  hashes_.push_back(hash);
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
