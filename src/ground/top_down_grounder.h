#ifndef TUFFY_GROUND_TOP_DOWN_GROUNDER_H_
#define TUFFY_GROUND_TOP_DOWN_GROUNDER_H_

#include <functional>
#include <vector>

#include "ground/grounding.h"
#include "mln/model.h"
#include "util/result.h"

namespace tuffy {

/// The Alchemy-style top-down grounder (Section 2.3): Prolog-flavored
/// nested-loop enumeration of variable bindings, literal by literal in
/// clause order, scanning the true evidence rows (EvidenceDb::rows)
/// without indexes and looping over type domains for unbound variables. Produces exactly the same
/// candidate set as BottomUpGrounder (a property the tests check); the
/// difference is the enumeration strategy, which is what the paper's
/// Table 2 measures.
class TopDownGrounder {
 public:
  TopDownGrounder(const MlnProgram& program, const EvidenceDb& evidence,
                  GroundingOptions options = {});

  Result<GroundingResult> Ground();

 private:
  void GroundClauseLoops(int clause_idx, GroundingContext* ctx);

  /// Recursively extends the assignment through the binding literals,
  /// then loops unbound variables over their domains.
  void Recurse(int clause_idx, size_t lit_pos,
               const std::vector<const Literal*>& binding_lits,
               Assignment* assignment, GroundingContext* ctx);

  void LoopFreeVars(int clause_idx, size_t var_pos,
                    const std::vector<VarId>& free_vars,
                    Assignment* assignment, GroundingContext* ctx);

  const MlnProgram& program_;
  const EvidenceDb& evidence_;
  GroundingOptions options_;
};

}  // namespace tuffy

#endif  // TUFFY_GROUND_TOP_DOWN_GROUNDER_H_
