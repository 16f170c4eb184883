#ifndef TUFFY_GROUND_RULE_COUNT_INDEX_H_
#define TUFFY_GROUND_RULE_COUNT_INDEX_H_

#include <cstdint>
#include <vector>

#include "ground/ground_clause.h"

namespace tuffy {

/// CSR ground-clause → first-order-rule count index, flattened from the
/// GroundClauseStore provenance. Entry `e` in
/// `[offsets[c], offsets[c+1])` says `count[e]` groundings of rule
/// `rule[e]` merged into ground clause `c`. This is the bridge between
/// the search layer (which sees clause indices) and the learning layer
/// (which needs per-formula satisfied-grounding counts n_i): when clause
/// `c` is true in a world, every contributing rule's count rises by its
/// multiplicity.
struct RuleCountIndex {
  std::vector<uint32_t> offsets;  // size num_clauses() + 1
  std::vector<int32_t> rule;      // parallel entry arrays
  std::vector<uint32_t> count;
  int32_t num_rules = 0;

  size_t num_clauses() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }

  /// Adds the multiplicity of each rule contributing to clause `c` into
  /// `counts`: the per-true-clause step of every count (clauses almost
  /// always have exactly one entry).
  template <typename T>
  void AccumulateClause(uint32_t c, std::vector<T>* counts) const {
    for (uint32_t e = offsets[c]; e < offsets[c + 1]; ++e) {
      (*counts)[rule[e]] += static_cast<T>(count[e]);
    }
  }

  size_t EstimateBytes() const {
    return offsets.size() * sizeof(uint32_t) + rule.size() * sizeof(int32_t) +
           count.size() * sizeof(uint32_t);
  }
};

/// Flattens the store's provenance into the CSR index. `num_rules` is
/// the number of first-order clauses in the program; contributions with
/// rule ids outside [0, num_rules) (e.g. hand-built clauses without
/// provenance) are dropped.
RuleCountIndex BuildRuleCountIndex(const GroundClauseStore& store,
                                   int32_t num_rules);

}  // namespace tuffy

#endif  // TUFFY_GROUND_RULE_COUNT_INDEX_H_
