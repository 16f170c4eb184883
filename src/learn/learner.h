#ifndef TUFFY_LEARN_LEARNER_H_
#define TUFFY_LEARN_LEARNER_H_

#include <cstdint>
#include <vector>

#include "ground/grounding.h"
#include "ground/rule_count_index.h"
#include "infer/problem.h"
#include "learn/learn_options.h"
#include "mln/model.h"
#include "util/result.h"

namespace tuffy {

struct LearnEpochStats {
  int epoch = 0;
  /// Largest |gradient| over the learnable rules this epoch.
  double max_abs_gradient = 0.0;
  /// Largest weight movement this epoch (running average for voted
  /// perceptron — the quantity the convergence test watches).
  double max_weight_delta = 0.0;
  double seconds = 0.0;
};

struct LearnResult {
  /// Learned weight per first-order rule (program clause index). Hard
  /// rules keep their original weight and are never updated.
  std::vector<double> weights;
  std::vector<double> initial_weights;
  /// n_i(x, y): satisfied-grounding counts in the training world.
  std::vector<int64_t> data_counts;
  /// E[n_i] at the last epoch's weights (MAP counts for voted
  /// perceptron, MC-SAT means for diagonal Newton).
  std::vector<double> expected_counts;
  int epochs = 0;
  bool converged = false;
  double seconds = 0.0;
  size_t num_atoms = 0;
  size_t num_ground_clauses = 0;
  std::vector<LearnEpochStats> history;
};

/// Gradient-based MLN weight learning over a fixed grounding: the
/// ∂logP/∂w_i = n_i(x,y) - E_w[n_i] ascent of the conditional
/// log-likelihood, with the expectation estimated per LearnAlgorithm.
/// Between epochs the ground clause *structure* is reused — only the
/// per-clause summed weights are recomputed from the rule count index
/// and rewritten in place with Problem::SetWeight.
///
/// The grounding must be exhaustive (lazy_closure = false): the lazy
/// closure prunes clauses that cannot be violated near the evidence
/// default, which biases the satisfied-grounding counts.
class WeightLearner {
 public:
  /// `program`, `grounding`, and `labels` must outlive the learner.
  /// `grounding` is the ground MRF over the *training evidence only*
  /// (labels withheld); `labels` supplies the data-world truth.
  WeightLearner(const MlnProgram& program, const GroundingResult& grounding,
                const EvidenceDb& labels, LearnOptions options);

  Result<LearnResult> Learn();

 private:
  /// Re-derives every soft ground clause's weight from the current rule
  /// weights (GroundClauseStore::DeriveWeight) and writes it into the
  /// problem in place; hard clauses keep theirs.
  void RefreshClauseWeights();
  /// Voted perceptron: the counts of the best state of a `map_flips`
  /// WalkSAT search, recounted once.
  void ExpectedCountsMap(uint64_t seed, std::vector<double>* mean);
  /// Diagonal Newton: MC-SAT sample mean/variance of the counts.
  void ExpectedCountsMcSat(uint64_t seed, std::vector<double>* mean,
                           std::vector<double>* var);

  const MlnProgram& program_;
  const GroundingResult& grounding_;
  const EvidenceDb& labels_;
  LearnOptions options_;

  Problem problem_;
  RuleCountIndex index_;
  /// The current rule weights; hard rules are not learned.
  RuleWeights rules_;
};

/// Convenience wrapper: construct + Learn.
Result<LearnResult> LearnWeights(const MlnProgram& program,
                                 const GroundingResult& grounding,
                                 const EvidenceDb& labels,
                                 const LearnOptions& options);

}  // namespace tuffy

#endif  // TUFFY_LEARN_LEARNER_H_
