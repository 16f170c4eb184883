#ifndef TUFFY_LEARN_COUNTS_H_
#define TUFFY_LEARN_COUNTS_H_

#include <cstdint>
#include <vector>

#include "ground/rule_count_index.h"
#include "infer/problem.h"
#include "mln/model.h"
#include "util/result.h"

namespace tuffy {

/// Truth assignment of the ground atoms under the label database: atoms
/// labeled true are 1, labeled-false and unlabeled atoms are 0 (the
/// closed-world training assumption for query predicates — an unlabeled
/// query atom is a negative example).
std::vector<uint8_t> LabelAssignment(const MlnProgram& program,
                                     const AtomStore& atoms,
                                     const EvidenceDb& labels);

/// Per-rule satisfied-grounding counts n_i of one world, by direct scan
/// of the clause set: the (fixed) data counts, and the voted
/// perceptron's per-epoch counts of its MAP state.
std::vector<int64_t> CountSatisfiedGroundings(
    const Problem& problem, const RuleCountIndex& index,
    const std::vector<uint8_t>& truth);

struct FormulaExpectations {
  std::vector<double> mean;  // E[n_i]
  std::vector<double> var;   // Var[n_i]
};

/// Exact per-rule expected satisfied-grounding counts under the MLN
/// distribution Pr[I] ∝ exp(-cost(I)), by exhaustive world enumeration
/// (worlds violating a hard clause get probability zero, matching
/// ExactMarginals). Only usable for tiny models; the ground-truth oracle
/// for the gradient check in learn_test.
Result<FormulaExpectations> ExactFormulaExpectations(
    const Problem& problem, const RuleCountIndex& index,
    size_t max_atoms = 20);

}  // namespace tuffy

#endif  // TUFFY_LEARN_COUNTS_H_
