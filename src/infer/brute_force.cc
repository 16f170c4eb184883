#include "infer/brute_force.h"

#include <cmath>
#include <limits>

#include "util/string_util.h"

namespace tuffy {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Result<ExactMapResult> ExactMap(const Problem& problem, double hard_weight,
                                size_t max_atoms) {
  if (problem.num_atoms > max_atoms) {
    return Status::InvalidArgument(
        StrFormat("%zu atoms exceeds brute-force limit %zu",
                  problem.num_atoms, max_atoms));
  }
  ExactMapResult best;
  best.cost = std::numeric_limits<double>::infinity();
  std::vector<uint8_t> truth(problem.num_atoms, 0);
  uint64_t worlds = 1ull << problem.num_atoms;
  for (uint64_t w = 0; w < worlds; ++w) {
    for (size_t i = 0; i < problem.num_atoms; ++i) {
      truth[i] = (w >> i) & 1 ? 1 : 0;
    }
    double cost = problem.EvalCost(truth, hard_weight);
    if (cost < best.cost) {
      best.cost = cost;
      best.truth = truth;
    }
  }
  return best;
}

Result<std::vector<double>> ExactMarginals(const Problem& problem,
                                           size_t max_atoms) {
  if (problem.num_atoms > max_atoms) {
    return Status::InvalidArgument(
        StrFormat("%zu atoms exceeds brute-force limit %zu",
                  problem.num_atoms, max_atoms));
  }
  std::vector<double> numer(problem.num_atoms, 0.0);
  double z = 0.0;
  std::vector<uint8_t> truth(problem.num_atoms, 0);
  uint64_t worlds = 1ull << problem.num_atoms;
  for (uint64_t w = 0; w < worlds; ++w) {
    for (size_t i = 0; i < problem.num_atoms; ++i) {
      truth[i] = (w >> i) & 1 ? 1 : 0;
    }
    // A world violating a hard clause costs +inf: probability exactly 0.
    const double p = std::exp(-problem.EvalCost(truth, kInf));
    z += p;
    for (size_t i = 0; i < problem.num_atoms; ++i) {
      if (truth[i]) numer[i] += p;
    }
  }
  if (z <= 0) return Status::Internal("no world satisfies the hard clauses");
  for (double& v : numer) v /= z;
  return numer;
}

Result<double> ExactLogZ(const Problem& problem, size_t max_atoms) {
  if (problem.num_atoms > max_atoms) {
    return Status::InvalidArgument(
        StrFormat("%zu atoms exceeds brute-force limit %zu",
                  problem.num_atoms, max_atoms));
  }
  double z = 0.0;
  std::vector<uint8_t> truth(problem.num_atoms, 0);
  uint64_t worlds = 1ull << problem.num_atoms;
  for (uint64_t w = 0; w < worlds; ++w) {
    for (size_t i = 0; i < problem.num_atoms; ++i) {
      truth[i] = (w >> i) & 1 ? 1 : 0;
    }
    z += std::exp(-problem.EvalCost(truth, kInf));
  }
  if (z <= 0) return Status::Internal("no world satisfies the hard clauses");
  return std::log(z);
}

}  // namespace tuffy
