#include "learn/counts.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/string_util.h"

namespace tuffy {

std::vector<uint8_t> LabelAssignment(const MlnProgram& program,
                                     const AtomStore& atoms,
                                     const EvidenceDb& labels) {
  std::vector<uint8_t> truth(atoms.num_atoms(), 0);
  for (AtomId a = 0; a < atoms.num_atoms(); ++a) {
    truth[a] = labels.Lookup(program, atoms.atom(a)) == Truth::kTrue ? 1 : 0;
  }
  return truth;
}

std::vector<int64_t> CountSatisfiedGroundings(
    const Problem& problem, const RuleCountIndex& index,
    const std::vector<uint8_t>& truth) {
  std::vector<int64_t> counts(index.num_rules, 0);
  for (uint32_t ci = 0; ci < problem.num_clauses(); ++ci) {
    if (problem.Satisfied(ci, truth)) {
      index.AccumulateClause(ci, &counts);
    }
  }
  return counts;
}

Result<FormulaExpectations> ExactFormulaExpectations(
    const Problem& problem, const RuleCountIndex& index, size_t max_atoms) {
  if (problem.num_atoms > max_atoms) {
    return Status::InvalidArgument(
        StrFormat("%zu atoms exceeds brute-force limit %zu",
                  problem.num_atoms, max_atoms));
  }
  const size_t num_rules = static_cast<size_t>(index.num_rules);
  std::vector<double> sum(num_rules, 0.0);
  std::vector<double> sum_sq(num_rules, 0.0);
  std::vector<int64_t> counts(num_rules, 0);
  double z = 0.0;
  std::vector<uint8_t> truth(problem.num_atoms, 0);
  const uint64_t worlds = 1ull << problem.num_atoms;
  for (uint64_t w = 0; w < worlds; ++w) {
    for (size_t i = 0; i < problem.num_atoms; ++i) {
      truth[i] = (w >> i) & 1 ? 1 : 0;
    }
    // A world violating a hard clause costs +inf: probability exactly 0,
    // as in ExactMarginals.
    const double p = std::exp(
        -problem.EvalCost(truth, std::numeric_limits<double>::infinity()));
    std::fill(counts.begin(), counts.end(), 0);
    for (uint32_t ci = 0; ci < problem.num_clauses(); ++ci) {
      if (problem.Satisfied(ci, truth)) {
        index.AccumulateClause(ci, &counts);
      }
    }
    z += p;
    for (size_t r = 0; r < num_rules; ++r) {
      sum[r] += p * static_cast<double>(counts[r]);
      sum_sq[r] += p * static_cast<double>(counts[r]) *
                   static_cast<double>(counts[r]);
    }
  }
  if (z <= 0) return Status::Internal("no world satisfies the hard clauses");
  FormulaExpectations out;
  out.mean.resize(num_rules);
  out.var.resize(num_rules);
  for (size_t r = 0; r < num_rules; ++r) {
    out.mean[r] = sum[r] / z;
    out.var[r] = std::max(0.0, sum_sq[r] / z - out.mean[r] * out.mean[r]);
  }
  return out;
}

}  // namespace tuffy
