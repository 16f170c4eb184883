#include "ground/top_down_grounder.h"

namespace tuffy {

TopDownGrounder::TopDownGrounder(const MlnProgram& program,
                                 const EvidenceDb& evidence,
                                 GroundingOptions options)
    : program_(program), evidence_(evidence), options_(options) {}

void TopDownGrounder::LoopFreeVars(int clause_idx, size_t var_pos,
                                   const std::vector<VarId>& free_vars,
                                   Assignment* assignment,
                                   GroundingContext* ctx) {
  if (var_pos == free_vars.size()) {
    ctx->AddCandidate(clause_idx, *assignment);
    return;
  }
  const Clause& clause = program_.clauses()[clause_idx];
  VarId v = free_vars[var_pos];
  const std::vector<ConstantId>& domain =
      program_.symbols().Domain(clause.var_types[v]);
  for (ConstantId c : domain) {
    (*assignment)[v] = c;
    LoopFreeVars(clause_idx, var_pos + 1, free_vars, assignment, ctx);
  }
  (*assignment)[v] = -1;
}

void TopDownGrounder::Recurse(int clause_idx, size_t lit_pos,
                              const std::vector<const Literal*>& binding_lits,
                              Assignment* assignment, GroundingContext* ctx) {
  // Prolog-style enumeration in clause-literal order: a closed-world
  // literal unifies against its evidence facts with a full list scan (no
  // indexes -- the "fixed join algorithm" behaviour of Table 6); any
  // other literal contributes domain loops for the variables it binds
  // first. This is the paper's top-down baseline, deliberately without
  // the relational optimizer.
  const Clause& clause = program_.clauses()[clause_idx];
  if (lit_pos == binding_lits.size()) {
    // Variables not bound by any literal walk (e.g. appearing only in
    // equality disjuncts).
    std::vector<bool> existential(clause.num_vars, false);
    for (VarId v : clause.existential_vars) existential[v] = true;
    std::vector<VarId> free_vars;
    for (VarId v = 0; v < clause.num_vars; ++v) {
      if (!existential[v] && (*assignment)[v] < 0) free_vars.push_back(v);
    }
    LoopFreeVars(clause_idx, 0, free_vars, assignment, ctx);
    return;
  }
  const Literal& lit = *binding_lits[lit_pos];
  const Predicate& pred = program_.predicate(lit.pred);
  bool evidence_bound = !lit.positive && pred.closed_world;

  if (!evidence_bound) {
    // Open-predicate (or positive closed) literal: bind its unbound
    // universal variables by looping over their type domains, then move
    // to the next literal.
    std::vector<bool> existential(clause.num_vars, false);
    for (VarId v : clause.existential_vars) existential[v] = true;
    std::vector<VarId> to_bind;
    for (const Term& t : lit.args) {
      if (!t.is_var || existential[t.id] || (*assignment)[t.id] >= 0) {
        continue;
      }
      bool already = false;
      for (VarId b : to_bind) already |= (b == t.id);
      if (!already) to_bind.push_back(t.id);
    }
    // Nested domain loops for this literal's fresh variables.
    std::function<void(size_t)> loop = [&](size_t i) {
      if (i == to_bind.size()) {
        Recurse(clause_idx, lit_pos + 1, binding_lits, assignment, ctx);
        return;
      }
      VarId v = to_bind[i];
      for (ConstantId c : program_.symbols().Domain(clause.var_types[v])) {
        (*assignment)[v] = c;
        loop(i + 1);
      }
      (*assignment)[v] = -1;
    };
    loop(0);
    return;
  }

  // Closed-world negative literal: scan every true evidence row and unify.
  const IdTable& rows = evidence_.rows(lit.pred, true);
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    auto arg = [&](size_t i) {
      return static_cast<ConstantId>(rows.col(i)[r]);
    };
    bool consistent = true;
    for (size_t i = 0; i < lit.args.size() && consistent; ++i) {
      const Term& t = lit.args[i];
      if (!t.is_var) {
        consistent = (arg(i) == t.id);
      } else if ((*assignment)[t.id] >= 0) {
        consistent = ((*assignment)[t.id] == arg(i));
      }
    }
    if (!consistent) continue;
    // Bind this literal's unbound variables; remember which to undo.
    std::vector<VarId> bound_here;
    for (size_t i = 0; i < lit.args.size(); ++i) {
      const Term& t = lit.args[i];
      if (t.is_var && (*assignment)[t.id] < 0) {
        (*assignment)[t.id] = arg(i);
        bound_here.push_back(t.id);
      } else if (t.is_var && (*assignment)[t.id] != arg(i)) {
        // Repeated variable bound earlier in this pass mismatches.
        consistent = false;
        break;
      }
    }
    if (consistent) {
      Recurse(clause_idx, lit_pos + 1, binding_lits, assignment, ctx);
    }
    for (VarId v : bound_here) (*assignment)[v] = -1;
  }
}

void TopDownGrounder::GroundClauseLoops(int clause_idx,
                                        GroundingContext* ctx) {
  const Clause& clause = program_.clauses()[clause_idx];
  std::vector<bool> existential(clause.num_vars, false);
  for (VarId v : clause.existential_vars) existential[v] = true;

  // All literals participate in the loop nest, in clause order; literals
  // whose variables are all existential are resolved later by the shared
  // back end.
  std::vector<const Literal*> loop_lits;
  for (const Literal& lit : clause.literals) {
    bool all_exist_or_const = true;
    for (const Term& t : lit.args) {
      if (t.is_var && !existential[t.id]) all_exist_or_const = false;
    }
    if (!all_exist_or_const) loop_lits.push_back(&lit);
  }
  Assignment assignment(clause.num_vars, -1);
  Recurse(clause_idx, 0, loop_lits, &assignment, ctx);
}

Result<GroundingResult> TopDownGrounder::Ground() {
  CandidateAtomTable table(program_);
  GroundingContext ctx(program_, evidence_, options_, &table);
  for (int ci = 0; ci < static_cast<int>(program_.clauses().size()); ++ci) {
    GroundClauseLoops(ci, &ctx);
  }
  return ctx.Finalize();
}

}  // namespace tuffy
