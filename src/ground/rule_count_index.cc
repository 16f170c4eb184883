#include "ground/rule_count_index.h"

namespace tuffy {

RuleCountIndex BuildRuleCountIndex(const GroundClauseStore& store,
                                   int32_t num_rules) {
  RuleCountIndex index;
  index.num_rules = num_rules;
  const size_t n = store.num_clauses();
  index.offsets.reserve(n + 1);
  index.offsets.push_back(0);
  for (size_t c = 0; c < n; ++c) {
    store.ForEachContribution(c, [&](int32_t rule_id, uint32_t count) {
      if (rule_id < 0 || rule_id >= num_rules) return;
      index.rule.push_back(rule_id);
      index.count.push_back(count);
    });
    index.offsets.push_back(static_cast<uint32_t>(index.rule.size()));
  }
  return index;
}

}  // namespace tuffy
