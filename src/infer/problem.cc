#include "infer/problem.h"

#include <cmath>

namespace tuffy {

void Problem::Clear() {
  clause_offsets.clear();
  clause_offsets.push_back(0);
  lit_data.clear();
  weight.clear();
  abs_weight.clear();
  hard.clear();
  positive.clear();
  frozen.clear();
}

void Problem::Reserve(size_t clauses, size_t lits) {
  clause_offsets.reserve(clause_offsets.size() + clauses);
  lit_data.reserve(lit_data.size() + lits);
  weight.reserve(weight.size() + clauses);
  abs_weight.reserve(abs_weight.size() + clauses);
  hard.reserve(hard.size() + clauses);
  positive.reserve(positive.size() + clauses);
  frozen.reserve(frozen.size() + clauses);
}

void Problem::AddClause(const Lit* lits, size_t n, double w, bool is_hard) {
  const size_t start = lit_data.size();
  bool taut = false;
  for (size_t i = 0; i < n; ++i) {
    const Lit l = lits[i];
    bool dup = false;
    for (size_t j = start; j < lit_data.size(); ++j) {
      if (lit_data[j] == l) {
        dup = true;
        break;
      }
      if (lit_data[j] == -l) taut = true;
    }
    if (!dup) lit_data.push_back(l);
  }
  clause_offsets.push_back(static_cast<uint32_t>(lit_data.size()));
  weight.push_back(w);
  abs_weight.push_back(std::fabs(w));
  hard.push_back(is_hard ? 1 : 0);
  positive.push_back((is_hard || w >= 0) ? 1 : 0);
  frozen.push_back(taut ? 1 : 0);
}

void Problem::SetWeight(uint32_t c, double w) {
  weight[c] = w;
  abs_weight[c] = std::fabs(w);
  positive[c] = (hard[c] || w >= 0) ? 1 : 0;
}

size_t Problem::EstimateBytes() const {
  return clause_offsets.capacity() * sizeof(uint32_t) +
         lit_data.capacity() * sizeof(Lit) +
         weight.capacity() * sizeof(double) +
         abs_weight.capacity() * sizeof(double) +
         hard.capacity() * sizeof(uint8_t) +
         positive.capacity() * sizeof(uint8_t) +
         frozen.capacity() * sizeof(uint8_t);
}

double Problem::EvalCost(const std::vector<uint8_t>& truth,
                         double hard_weight) const {
  double cost = 0.0;
  for (uint32_t c = 0; c < num_clauses(); ++c) {
    const bool is_true = Satisfied(c, truth);
    if (hard[c]) {
      if (!is_true) cost += hard_weight;
    } else if (weight[c] > 0) {
      if (!is_true) cost += weight[c];
    } else {
      if (is_true) cost += -weight[c];
    }
  }
  return cost;
}

Problem MakeWholeProblem(size_t num_atoms,
                         const std::vector<GroundClause>& clauses) {
  Problem p;
  p.num_atoms = num_atoms;
  for (const GroundClause& c : clauses) {
    p.AddClause(c.lits.data(), c.lits.size(), c.weight, c.hard);
  }
  return p;
}

SubProblem BuildSubProblem(const std::vector<GroundClause>& all_clauses,
                           const std::vector<uint32_t>& clause_ids,
                           const std::vector<AtomId>& atom_ids,
                           const std::vector<uint32_t>& position_of_atom) {
  SubProblem sub;
  sub.global_atom = atom_ids;
  Problem& p = sub.problem;
  p.num_atoms = atom_ids.size();
  size_t num_lits = 0;
  for (uint32_t ci : clause_ids) num_lits += all_clauses[ci].lits.size();
  p.Reserve(clause_ids.size(), num_lits);
  std::vector<Lit> lits;
  for (uint32_t ci : clause_ids) {
    const GroundClause& c = all_clauses[ci];
    lits.clear();
    for (Lit l : c.lits) {
      lits.push_back(MakeLit(position_of_atom[LitAtom(l)], LitPositive(l)));
    }
    p.AddClause(lits.data(), lits.size(), c.weight, c.hard);
  }
  return sub;
}

SubProblem BuildConditionedSubProblem(
    const std::vector<GroundClause>& all_clauses,
    const std::vector<uint32_t>& clause_ids,
    const std::vector<uint32_t>& cut_clause_ids,
    const std::vector<AtomId>& atom_ids,
    const std::vector<int32_t>& partition_of_atom,
    const std::vector<uint32_t>& position_of_atom, int32_t partition,
    const std::vector<uint8_t>& global_truth) {
  SubProblem sub =
      BuildSubProblem(all_clauses, clause_ids, atom_ids, position_of_atom);
  std::vector<Lit> lits;
  for (uint32_t ci : cut_clause_ids) {
    const GroundClause& c = all_clauses[ci];
    // Skip cut clauses that do not touch this partition.
    bool touches = false;
    for (Lit l : c.lits) {
      if (partition_of_atom[LitAtom(l)] == partition) touches = true;
    }
    if (!touches) continue;
    lits.clear();
    bool satisfied_external = false;
    for (Lit l : c.lits) {
      AtomId g = LitAtom(l);
      if (partition_of_atom[g] == partition) {
        lits.push_back(MakeLit(position_of_atom[g], LitPositive(l)));
        continue;
      }
      bool atom_true = global_truth[g] != 0;
      if (atom_true == LitPositive(l)) {
        satisfied_external = true;
        break;
      }
      // External false literal: drop.
    }
    if (satisfied_external) {
      // For w > 0 / hard the clause is satisfied and disappears; for
      // w < 0 it is permanently violated inside this sweep, a constant
      // the local search cannot change, so it is also dropped.
      continue;
    }
    if (lits.empty()) continue;  // constant for this sweep
    sub.problem.AddClause(lits.data(), lits.size(), c.weight, c.hard);
  }
  return sub;
}

}  // namespace tuffy
