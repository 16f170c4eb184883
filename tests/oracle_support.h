// Shared support for the exact-inference oracle tests: component
// splitting over generated MRFs, seed-varied tractable-program
// parameters, and a link-chain MLN whose ground MRF is a forest (so the
// serving path routes every component to the exact solver).
#ifndef TUFFY_TESTS_ORACLE_SUPPORT_H_
#define TUFFY_TESTS_ORACLE_SUPPORT_H_

#include <string>
#include <vector>

#include "datagen/datasets.h"
#include "infer/problem.h"
#include "mln/model.h"
#include "mln/parser.h"
#include "mrf/components.h"

namespace tuffy {

/// Splits an MRF into one SubProblem per component (clause-less
/// singleton components included).
inline std::vector<SubProblem> SplitComponents(
    size_t num_atoms, const std::vector<GroundClause>& clauses) {
  ComponentSet cs = DetectComponents(num_atoms, clauses);
  std::vector<SubProblem> subs;
  subs.reserve(cs.num_components());
  for (size_t i = 0; i < cs.num_components(); ++i) {
    subs.push_back(BuildSubProblem(clauses, cs.clauses[i], cs.atoms[i],
                                   cs.position_of_atom));
  }
  return subs;
}

/// Deterministically varies every generator knob with the program index,
/// so a sweep over indices covers unit-only, forest, hard-heavy, and
/// conditioned shapes.
inline TractableMrfParams VariedTractableParams(uint64_t index) {
  TractableMrfParams p;
  p.num_components = 1 + static_cast<int>(index % 4);
  p.min_atoms = 1;
  p.max_atoms = 2 + static_cast<int>(index % 7);
  p.unit_prob = 0.4 + 0.1 * static_cast<double>(index % 5);
  p.extra_pair_prob = 0.15 * static_cast<double>(index % 3);
  p.hard_prob = 0.15 * static_cast<double>(index % 3);
  p.negative_prob = 0.1 + 0.15 * static_cast<double>(index % 3);
  p.conditioned_prob = index % 2 == 0 ? 0.5 : 0.0;
  p.seed = 0x0acc1eull + index * 7919;
  return p;
}

/// A link-propagation program (same shape serve_test uses) over
/// `num_nodes` nodes and two classes. With chain-shaped link evidence
/// the ground MRF is a forest of binary implication clauses per class —
/// squarely inside the tractable fragment.
inline MlnProgram OracleLinkProgram(int num_nodes) {
  auto r = ParseProgram(
      "*link(node, node)\n"
      "label(node, cls)\n"
      "2 link(x, y), label(x, c) => label(y, c)\n");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  MlnProgram program = r.TakeValue();
  program.symbols().Intern("A", "cls");
  program.symbols().Intern("B", "cls");
  for (int i = 0; i < num_nodes; ++i) {
    program.symbols().Intern("n" + std::to_string(i), "node");
  }
  return program;
}

inline GroundAtom OracleAtom(const MlnProgram& program, const std::string& pred,
                             const std::vector<std::string>& args) {
  GroundAtom atom;
  auto pid = program.FindPredicate(pred);
  EXPECT_TRUE(pid.ok());
  atom.pred = pid.value();
  for (const std::string& a : args) {
    ConstantId c = program.symbols().Find(a);
    EXPECT_GE(c, 0) << "unknown constant " << a;
    atom.args.push_back(c);
  }
  return atom;
}

}  // namespace tuffy

#endif  // TUFFY_TESTS_ORACLE_SUPPORT_H_
