#include "ground/ground_clause.h"

#include <algorithm>
#include <cmath>

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

RuleWeights::RuleWeights(const MlnProgram& program) {
  for (const Clause& rule : program.clauses()) {
    weight.push_back(rule.weight);
    hard.push_back(rule.hard ? 1 : 0);
  }
}

double RuleWeights::FixedCost(size_t rule, uint64_t count) const {
  return hard[rule] ? 0.0
                    : static_cast<double>(count) * std::fabs(weight[rule]);
}

double RuleWeights::FixedCost(const std::vector<uint64_t>& counts) const {
  double total = 0.0;
  for (size_t r = 0; r < counts.size(); ++r) total += FixedCost(r, counts[r]);
  return total;
}

size_t GroundClauseStore::AddFromScratch(std::vector<Lit>* lits,
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
    AddRuleCount(idx, rule_id, 1);
    return idx;
  }
  GroundClause clause;
  clause.lits = *lits;  // copy: the scratch buffer stays with the caller
  clause.rule_id = rule_id;
  clauses_.push_back(std::move(clause));
  first_contrib_.push_back(RuleContribution{rule_id, 1});
  return idx;
}

size_t GroundClauseStore::Add(GroundClause clause) {
  const size_t idx = AddFromScratch(&clause.lits, clause.rule_id);
  if (idx == kTautology) return idx;
  GroundClause& merged = clauses_[idx];
  merged.weight += clause.weight;
  merged.hard = merged.hard || clause.hard;
  return idx;
}

bool GroundClauseStore::Find(const std::vector<Lit>& lits,
                             size_t* idx) const {
  const uint32_t id =
      index_.Find(LitVectorHash{}(lits),
                  [&](uint32_t i) { return clauses_[i].lits == lits; });
  if (id == IdIndex::kAbsent) return false;
  *idx = id;
  return true;
}

size_t GroundClauseStore::FindOrAppend(const std::vector<Lit>& lits,
                                       bool* added) {
  const size_t idx = index_.FindOrAdd(
      LitVectorHash{}(lits),
      [&](uint32_t i) { return clauses_[i].lits == lits; }, added);
  if (*added) {
    GroundClause clause;
    clause.lits = lits;
    clauses_.push_back(std::move(clause));
    first_contrib_.push_back(RuleContribution{});
  }
  return idx;
}

bool GroundClauseStore::DeriveWeight(size_t idx,
                                     const std::vector<double>& rule_weights,
                                     const std::vector<uint8_t>& rule_hard,
                                     double* weight, bool* hard) const {
  bool contributed = false;
  *weight = 0.0;
  *hard = false;
  ForEachContribution(idx, [&](int32_t rule, uint32_t count) {
    contributed = true;
    if (rule < 0 || static_cast<size_t>(rule) >= rule_weights.size()) return;
    *hard = *hard || rule_hard[rule];
    if (!rule_hard[rule]) *weight += rule_weights[rule] * count;
  });
  return contributed;
}

uint32_t GroundClauseStore::AddRuleCount(size_t idx, int32_t rule_id,
                                         int64_t delta) {
  RuleContribution& first = first_contrib_[idx];
  if (first.count != 0 && rule_id < first.rule_id) {
    // A rule that sorts first moves inline; the old first leads the extras.
    std::vector<RuleContribution>& extras = extra_contribs_[idx];
    extras.insert(extras.begin(), first);
    first = RuleContribution{rule_id, 0};
  }
  if (first.count == 0) first.rule_id = rule_id;
  if (first.rule_id == rule_id) {
    const uint32_t before = first.count;
    first.count = static_cast<uint32_t>(before + delta);
    auto it = first.count == 0 ? extra_contribs_.find(idx)
                               : extra_contribs_.end();
    if (it != extra_contribs_.end()) {
      // The next rule moves inline.
      first = it->second.front();
      it->second.erase(it->second.begin());
      if (it->second.empty()) extra_contribs_.erase(it);
    }
    return before;
  }
  std::vector<RuleContribution>& extras = extra_contribs_[idx];
  auto rc = std::lower_bound(
      extras.begin(), extras.end(), rule_id,
      [](const RuleContribution& c, int32_t r) { return c.rule_id < r; });
  const bool found = rc != extras.end() && rc->rule_id == rule_id;
  const uint32_t before = found ? rc->count : 0;
  const uint32_t after = static_cast<uint32_t>(before + delta);
  if (!found) {
    if (after != 0) extras.insert(rc, RuleContribution{rule_id, after});
  } else if (after != 0) {
    rc->count = after;
  } else {
    extras.erase(rc);
  }
  if (extras.empty()) extra_contribs_.erase(idx);
  return before;
}

void GroundClauseStore::SwapRemove(size_t idx) {
  index_.SwapRemove(static_cast<uint32_t>(idx));
  extra_contribs_.erase(idx);
  const size_t last = clauses_.size() - 1;
  if (idx != last) {
    clauses_[idx] = std::move(clauses_[last]);
    first_contrib_[idx] = first_contrib_[last];
    auto extras = extra_contribs_.extract(last);
    if (!extras.empty()) {
      extras.key() = idx;
      extra_contribs_.insert(std::move(extras));
    }
  }
  clauses_.pop_back();
  first_contrib_.pop_back();
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
