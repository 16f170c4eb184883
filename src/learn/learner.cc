#include "learn/learner.h"

#include <algorithm>
#include <cmath>

#include "infer/mcsat.h"
#include "infer/walksat.h"
#include "learn/counts.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace tuffy {

Status ValidateLearnOptions(const LearnOptions& options) {
  if (options.max_epochs <= 0) {
    return Status::InvalidArgument(
        StrFormat("max_epochs must be positive, got %d", options.max_epochs));
  }
  if (!(options.learning_rate > 0.0)) {
    return Status::InvalidArgument(
        StrFormat("learning_rate must be positive, got %g",
                  options.learning_rate));
  }
  if (!(options.lr_decay >= 0.0)) {
    return Status::InvalidArgument(
        StrFormat("lr_decay must be non-negative, got %g",
                  options.lr_decay));
  }
  if (!(options.l2_prior_variance > 0.0)) {
    return Status::InvalidArgument(
        StrFormat("l2_prior_variance must be positive (infinity disables "
                  "the prior), got %g",
                  options.l2_prior_variance));
  }
  if (!(options.convergence_tol >= 0.0)) {
    return Status::InvalidArgument(
        StrFormat("convergence_tol must be non-negative, got %g",
                  options.convergence_tol));
  }
  if (!(options.max_weight > 0.0)) {
    return Status::InvalidArgument(StrFormat(
        "max_weight must be positive, got %g", options.max_weight));
  }
  if (options.map_flips == 0) {
    return Status::InvalidArgument("map_flips must be positive");
  }
  if (options.p_random < 0.0 || options.p_random > 1.0) {
    return Status::InvalidArgument(
        StrFormat("p_random must be in [0, 1], got %g", options.p_random));
  }
  if (options.mcsat_samples <= 0) {
    return Status::InvalidArgument(StrFormat(
        "mcsat_samples must be positive, got %d", options.mcsat_samples));
  }
  if (options.mcsat_burn_in < 0) {
    return Status::InvalidArgument(StrFormat(
        "mcsat_burn_in must be non-negative, got %d", options.mcsat_burn_in));
  }
  if (options.mcsat_burn_in >= options.mcsat_samples) {
    return Status::InvalidArgument(StrFormat(
        "mcsat_burn_in (%d) must be smaller than mcsat_samples (%d): "
        "burning in at least as many rounds as are kept discards the "
        "majority of every epoch's sampling budget",
        options.mcsat_burn_in, options.mcsat_samples));
  }
  if (!(options.newton_damping >= 0.0)) {
    return Status::InvalidArgument(
        StrFormat("newton_damping must be non-negative, got %g",
                  options.newton_damping));
  }
  if (!(options.hard_weight > 0.0)) {
    return Status::InvalidArgument(StrFormat(
        "hard_weight must be positive, got %g", options.hard_weight));
  }
  return Status::OK();
}

WeightLearner::WeightLearner(const MlnProgram& program,
                             const GroundingResult& grounding,
                             const EvidenceDb& labels, LearnOptions options)
    : program_(program),
      grounding_(grounding),
      labels_(labels),
      options_(std::move(options)),
      rules_(program) {}

void WeightLearner::RefreshClauseWeights() {
  for (uint32_t c = 0; c < problem_.num_clauses(); ++c) {
    double weight = 0.0;
    bool hard = false;
    grounding_.clauses.DeriveWeight(c, rules_.weight, rules_.hard, &weight,
                                    &hard);
    if (!hard) problem_.SetWeight(c, weight);
  }
}

void WeightLearner::ExpectedCountsMap(uint64_t seed,
                                      std::vector<double>* mean) {
  Rng rng(seed);
  WalkSatOptions wopts;
  wopts.p_random = options_.p_random;
  wopts.hard_weight = options_.hard_weight;
  WalkSat search(&problem_, wopts, &rng);
  search.RunFlips(options_.map_flips);
  const std::vector<int64_t> counts =
      CountSatisfiedGroundings(problem_, index_, search.best_truth());
  mean->assign(counts.begin(), counts.end());
}

void WeightLearner::ExpectedCountsMcSat(uint64_t seed,
                                        std::vector<double>* mean,
                                        std::vector<double>* var) {
  McSatOptions mopts;
  mopts.num_samples = options_.mcsat_samples;
  mopts.burn_in = options_.mcsat_burn_in;
  mopts.hard_weight = options_.hard_weight;
  mopts.count_index = &index_;
  McSatResult mr = RunMcSat(problem_, mopts, seed);
  *mean = std::move(mr.formula_count_mean);
  *var = std::move(mr.formula_count_var);
  // Unreachable with validated options (mcsat_samples > 0 guarantees
  // kept samples), but guard library misuse: an empty statistics vector
  // must not be indexed by the epoch loop.
  const size_t num_rules = static_cast<size_t>(index_.num_rules);
  if (mean->size() != num_rules) mean->assign(num_rules, 0.0);
  if (var->size() != num_rules) var->assign(num_rules, 0.0);
}

Result<LearnResult> WeightLearner::Learn() {
  TUFFY_RETURN_IF_ERROR(ValidateLearnOptions(options_));
  Timer timer;

  const std::vector<GroundClause>& clauses = grounding_.clauses.clauses();
  const size_t num_atoms = grounding_.atoms.num_atoms();
  const int32_t num_rules = static_cast<int32_t>(program_.clauses().size());
  if (num_rules == 0) {
    return Status::InvalidArgument("program has no clauses to learn");
  }

  problem_ = MakeWholeProblem(num_atoms, clauses);
  index_ = BuildRuleCountIndex(grounding_.clauses, num_rules);

  LearnResult result;
  result.num_atoms = num_atoms;
  result.num_ground_clauses = clauses.size();

  std::vector<double>& weights = rules_.weight;
  result.initial_weights = weights;

  // The data-world counts n_i(x, y) are fixed across epochs.
  const std::vector<uint8_t> label_truth =
      LabelAssignment(program_, grounding_.atoms, labels_);
  result.data_counts = CountSatisfiedGroundings(problem_, index_, label_truth);

  const bool perceptron =
      options_.algorithm == LearnAlgorithm::kVotedPerceptron;
  const double inv_prior_var =
      std::isinf(options_.l2_prior_variance)
          ? 0.0
          : 1.0 / options_.l2_prior_variance;

  // Voted-perceptron averaging state.
  std::vector<double> weight_sum(num_rules, 0.0);
  std::vector<double> prev_avg = weights;

  std::vector<double> expected;
  std::vector<double> variance;
  for (int epoch = 0; epoch < options_.max_epochs; ++epoch) {
    Timer epoch_timer;
    RefreshClauseWeights();
    const uint64_t seed = options_.seed + 0x9E37u * (epoch + 1);
    if (perceptron) {
      ExpectedCountsMap(seed, &expected);
    } else {
      ExpectedCountsMcSat(seed, &expected, &variance);
    }

    LearnEpochStats stats;
    stats.epoch = epoch;
    double max_delta = 0.0;
    for (int32_t r = 0; r < num_rules; ++r) {
      if (rules_.hard[r]) continue;
      const double g = static_cast<double>(result.data_counts[r]) -
                       expected[r] - weights[r] * inv_prior_var;
      stats.max_abs_gradient = std::max(stats.max_abs_gradient, std::fabs(g));
      double step;
      if (perceptron) {
        step = options_.learning_rate / (1.0 + options_.lr_decay * epoch) * g;
      } else {
        const double curvature =
            variance[r] + inv_prior_var + options_.newton_damping;
        step = options_.learning_rate * g / curvature;
      }
      const double updated =
          std::clamp(weights[r] + step, -options_.max_weight,
                     options_.max_weight);
      if (!perceptron) {
        max_delta = std::max(max_delta, std::fabs(updated - weights[r]));
      }
      weights[r] = updated;
    }

    if (perceptron) {
      // Convergence is judged on the running average (the "voted"
      // weights), which settles even while the raw weights oscillate
      // around the optimum of the MAP approximation.
      for (int32_t r = 0; r < num_rules; ++r) weight_sum[r] += weights[r];
      for (int32_t r = 0; r < num_rules; ++r) {
        const double avg = weight_sum[r] / (epoch + 1);
        max_delta = std::max(max_delta, std::fabs(avg - prev_avg[r]));
        prev_avg[r] = avg;
      }
    }

    stats.max_weight_delta = max_delta;
    stats.seconds = epoch_timer.ElapsedSeconds();
    result.history.push_back(stats);
    result.epochs = epoch + 1;
    if (epoch > 0 && max_delta < options_.convergence_tol) {
      result.converged = true;
      break;
    }
  }

  if (perceptron && result.epochs > 0) {
    for (int32_t r = 0; r < num_rules; ++r) {
      if (!rules_.hard[r]) weights[r] = weight_sum[r] / result.epochs;
    }
  }
  result.weights = weights;
  result.expected_counts = std::move(expected);
  result.seconds = timer.ElapsedSeconds();
  return result;
}

Result<LearnResult> LearnWeights(const MlnProgram& program,
                                 const GroundingResult& grounding,
                                 const EvidenceDb& labels,
                                 const LearnOptions& options) {
  WeightLearner learner(program, grounding, labels, options);
  return learner.Learn();
}

}  // namespace tuffy
