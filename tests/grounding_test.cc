#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "datagen/datasets.h"
#include "ground/bottom_up_grounder.h"
#include "ground/top_down_grounder.h"
#include "mln/parser.h"

namespace tuffy {
namespace {

/// Canonical signature of a grounding result, independent of atom-id
/// assignment order: each clause rendered with printed atom names, sorted.
std::multiset<std::string> ClauseSignatures(const MlnProgram& program,
                                            const GroundingResult& g) {
  std::multiset<std::string> out;
  for (const GroundClause& c : g.clauses.clauses()) {
    std::vector<std::string> lits;
    for (Lit l : c.lits) {
      std::string s = LitPositive(l) ? "" : "!";
      s += g.atoms.AtomName(program, LitAtom(l));
      lits.push_back(std::move(s));
    }
    std::sort(lits.begin(), lits.end());
    std::string sig;
    for (const std::string& s : lits) sig += s + " | ";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "w=%.4f h=%d", c.weight, c.hard ? 1 : 0);
    sig += buf;
    out.insert(std::move(sig));
  }
  return out;
}

struct ParsedInput {
  MlnProgram program;
  EvidenceDb evidence;
};

ParsedInput Parse(const std::string& mln, const std::string& ev) {
  auto program = ParseProgram(mln);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  ParsedInput in;
  in.program = program.TakeValue();
  Status st = ParseEvidence(ev, &in.program, &in.evidence);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return in;
}

GroundingResult GroundBottomUp(const ParsedInput& in,
                               GroundingOptions opts = {}) {
  BottomUpGrounder g(in.program, in.evidence, opts);
  auto r = g.Ground();
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.TakeValue();
}

GroundingResult GroundTopDown(const ParsedInput& in,
                              GroundingOptions opts = {}) {
  TopDownGrounder g(in.program, in.evidence, opts);
  auto r = g.Ground();
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.TakeValue();
}

// -------------------------------------------------- basic clause shapes

TEST(GroundingTest, SimpleImplicationGroundsOverEvidence) {
  // r is closed-world: only (A,B) true. Rule fires once, leaving unit
  // clauses over the unknown q atoms.
  ParsedInput in = Parse(
      "*r(t, t)\n"
      "q(t)\n"
      "1 q(x), r(x, y) => q(y)\n",
      "r(A, B)\n");
  // Eager mode: this clause has no lazy activation source (it is
  // satisfied under the all-false default), so exhaustive grounding is
  // what exercises the resolution logic here.
  GroundingOptions eager;
  eager.lazy_closure = false;
  GroundingResult g = GroundBottomUp(in, eager);
  // Clausal form: !q(A) v !r(A,B) v q(B); with r(A,B) true the literal
  // drops => clause {!q(A), q(B)}.
  EXPECT_EQ(g.clauses.num_clauses(), 1u);
  EXPECT_EQ(g.atoms.num_atoms(), 2u);
  EXPECT_DOUBLE_EQ(g.clauses.clauses()[0].weight, 1.0);
}

TEST(GroundingTest, EvidenceSatisfiedClausesPruned) {
  // With q(B) true as evidence, the clause is satisfied and pruned.
  ParsedInput in = Parse(
      "*r(t, t)\n"
      "q(t)\n"
      "1 q(x), r(x, y) => q(y)\n",
      "r(A, B)\nq(B)\n");
  GroundingResult g = GroundBottomUp(in);
  EXPECT_EQ(g.clauses.num_clauses(), 0u);
  EXPECT_EQ(g.atoms.num_atoms(), 0u);
  EXPECT_GT(g.stats.satisfied_by_evidence, 0u);
}

TEST(GroundingTest, FalseEvidenceLiteralDropped) {
  // q(A) false in evidence: !q(A) is true => clause satisfied => pruned.
  ParsedInput in = Parse(
      "*r(t, t)\n"
      "q(t)\n"
      "1 q(x), r(x, y) => q(y)\n",
      "r(A, B)\n!q(A)\n");
  GroundingResult g = GroundBottomUp(in);
  EXPECT_EQ(g.clauses.num_clauses(), 0u);
}

TEST(GroundingTest, TrueEvidenceBodyLeavesUnitClause) {
  ParsedInput in = Parse(
      "*r(t, t)\n"
      "q(t)\n"
      "1 q(x), r(x, y) => q(y)\n",
      "r(A, B)\nq(A)\n");
  GroundingResult g = GroundBottomUp(in);
  ASSERT_EQ(g.clauses.num_clauses(), 1u);
  EXPECT_EQ(g.clauses.clauses()[0].lits.size(), 1u);  // just q(B)
}

TEST(GroundingTest, ConstantFalseSoftClauseAddsFixedCost) {
  // Unit positive clause over a false-evidence atom: permanently violated.
  ParsedInput in = Parse(
      "q(t)\n"
      "2 q(A)\n",
      "!q(A)\n");
  GroundingResult g = GroundBottomUp(in);
  EXPECT_EQ(g.clauses.num_clauses(), 0u);
  EXPECT_DOUBLE_EQ(g.fixed_cost, 2.0);
}

TEST(GroundingTest, NegativeWeightSatisfiedByEvidenceAddsFixedCost) {
  ParsedInput in = Parse(
      "q(t)\n"
      "-3 q(A)\n",
      "q(A)\n");
  GroundingResult g = GroundBottomUp(in);
  EXPECT_EQ(g.clauses.num_clauses(), 0u);
  EXPECT_DOUBLE_EQ(g.fixed_cost, 3.0);
}

TEST(GroundingTest, HardContradictionDetected) {
  ParsedInput in = Parse(
      "*p(t)\n"
      "*r(t)\n"
      "p(x) => r(x).\n",
      "p(A)\n");
  // r closed-world: r(A) absent => false => hard clause violated.
  GroundingResult g = GroundBottomUp(in);
  EXPECT_TRUE(g.hard_contradiction);
}

TEST(GroundingTest, EqualityConstraintPrunesSatisfiedGroundings) {
  // F1-style rule: groundings with c1 == c2 are satisfied and skipped.
  ParsedInput in = Parse(
      "q(p, c)\n"
      "5 q(x, c1), q(x, c2) => c1 = c2\n",
      "// domain seeding\nq(P1, A)\n");
  // Evidence q(P1,A)=true seeds domains: p={P1}, c={A}. All groundings
  // have c1=c2=A => satisfied => nothing emitted.
  GroundingResult g = GroundBottomUp(in);
  EXPECT_EQ(g.clauses.num_clauses(), 0u);
}

TEST(GroundingTest, ExistentialQuantifierExpandsOverDomain) {
  ParsedInput in = Parse(
      "*p(t)\n"
      "w(a, t)\n"
      "p(x) => EXIST y w(y, x).\n",
      "p(X)\n"
      "w(A1, Z)\n"
      "!w(A2, Z)\n");
  // Domain of a = {A1, A2}; the hard clause for p(X) expands to
  // w(A1,X) v w(A2,X), both unknown.
  GroundingResult g = GroundBottomUp(in);
  ASSERT_EQ(g.clauses.num_clauses(), 1u);
  EXPECT_EQ(g.clauses.clauses()[0].lits.size(), 2u);
  EXPECT_TRUE(g.clauses.clauses()[0].hard);
}

TEST(GroundingTest, ExistentialSatisfiedByEvidencePruned) {
  ParsedInput in = Parse(
      "*p(t)\n"
      "w(a, t)\n"
      "p(x) => EXIST y w(y, x).\n",
      "p(X)\n"
      "w(A1, X)\n");
  GroundingResult g = GroundBottomUp(in);
  EXPECT_EQ(g.clauses.num_clauses(), 0u);
}

TEST(GroundingTest, DuplicateGroundClausesMergeWeights) {
  // Symmetric rule produces the same ground clause from two assignments.
  ParsedInput in = Parse(
      "*r(t, t)\n"
      "q(t)\n"
      "1 r(x, y) => q(x)\n"
      "2 r(y, x) => q(x)\n",
      "r(A, A)\n");
  GroundingResult g = GroundBottomUp(in);
  ASSERT_EQ(g.clauses.num_clauses(), 1u);
  EXPECT_DOUBLE_EQ(g.clauses.clauses()[0].weight, 3.0);
}

// ------------------------------------------------------- lazy closure

TEST(GroundingTest, LazyClosurePrunesInactiveNegativeLiterals) {
  // F1-style: both literals negative over unknown atoms. Under the lazy
  // hypothesis (all unknowns false) these clauses are satisfied and never
  // become active without an activation source.
  ParsedInput in = Parse(
      "q(p, c)\n"
      "5 q(x, c1), q(x, c2) => c1 = c2\n",
      "q(P1, A)\n"
      "q(P2, B)\n");
  GroundingOptions lazy;
  lazy.lazy_closure = true;
  GroundingResult g = GroundBottomUp(in, lazy);
  // Groundings with c1 != c2: {P1,P2} x {(A,B),(B,A)} = 4 candidates, but
  // e.g. (P1, A, B): !q(P1,A) ev-true-literal? q(P1,A)=true => !q(P1,A)
  // false => dropped; !q(P1,B) unknown (negative) => needs activity.
  // Nothing activates it, so nothing is emitted.
  EXPECT_EQ(g.clauses.num_clauses(), 0u);
  EXPECT_GT(g.stats.pruned_inactive, 0u);

  GroundingOptions eager;
  eager.lazy_closure = false;
  GroundingResult ge = GroundBottomUp(in, eager);
  EXPECT_GT(ge.clauses.num_clauses(), 0u);
}

TEST(GroundingTest, ClosureActivationCascades) {
  // Chain: r evidence makes unit-ish clauses on q(A)->q(B)->q(C): the
  // positive literals activate atoms, which activates the next clause.
  ParsedInput in = Parse(
      "*r(t, t)\n"
      "q(t)\n"
      "1 q(x), r(x, y) => q(y)\n"
      "2 r(x, y) => q(x)\n",
      "r(A, B)\nr(B, C)\n");
  GroundingResult g = GroundBottomUp(in);
  // Rule 2 emits q(A), q(B) units (activating them); rule 1 clauses
  // {!q(A), q(B)} and {!q(B), q(C)} activate because their negative
  // atoms are active.
  EXPECT_EQ(g.clauses.num_clauses(), 4u);
  EXPECT_EQ(g.atoms.num_atoms(), 3u);
  EXPECT_GE(g.stats.closure_iterations, 2);
}

TEST(GroundingTest, NegativeWeightClauseActiveViaNegativeLiteral) {
  // w<0 clause is violable when it can become true; a negative literal
  // over a default-false atom makes it immediately true.
  ParsedInput in = Parse(
      "q(t)\n"
      "-1 !q(A)\n",
      "q(B)\n");
  GroundingResult g = GroundBottomUp(in);
  ASSERT_EQ(g.clauses.num_clauses(), 1u);
  EXPECT_DOUBLE_EQ(g.clauses.clauses()[0].weight, -1.0);
}

TEST(GroundingTest, TautologyDropped) {
  ParsedInput in = Parse(
      "q(t)\n"
      "1 q(A) v !q(A)\n",
      "q(B)\n");
  GroundingOptions eager;
  eager.lazy_closure = false;
  GroundingResult g = GroundBottomUp(in, eager);
  EXPECT_EQ(g.clauses.num_clauses(), 0u);
}

// -------------------------------------- bottom-up == top-down property

class GrounderEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(GrounderEquivalenceTest, DatasetsGroundIdentically) {
  int which = GetParam();
  Dataset ds;
  switch (which) {
    case 0: {
      RcParams p;
      p.num_clusters = 4;
      p.papers_per_cluster = 5;
      auto r = MakeRcDataset(p);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ds = r.TakeValue();
      break;
    }
    case 1: {
      IeParams p;
      p.num_citations = 20;
      p.num_token_rules = 30;
      auto r = MakeIeDataset(p);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ds = r.TakeValue();
      break;
    }
    case 2: {
      LpParams p;
      p.num_students = 10;
      p.num_professors = 4;
      p.num_publications = 20;
      p.num_courses = 6;
      auto r = MakeLpDataset(p);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ds = r.TakeValue();
      break;
    }
    case 3: {
      ErParams p;
      p.num_records = 12;
      p.num_entities = 4;
      auto r = MakeErDataset(p);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ds = r.TakeValue();
      break;
    }
    default: {
      // RC again, but the closed-world `refers` and `wrote` also carry
      // explicit false rows for every absent pair: binding joins must
      // read the true rows only.
      RcParams p;
      p.num_clusters = 4;
      p.papers_per_cluster = 5;
      auto r = MakeRcDataset(p);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ds = r.TakeValue();
      const SymbolTable& symbols = ds.program.symbols();
      auto add_absent_false = [&](const char* name,
                                  const std::vector<ConstantId>& xs,
                                  const std::vector<ConstantId>& ys) {
        GroundAtom atom;
        atom.pred = ds.program.FindPredicate(name).value();
        for (ConstantId x : xs) {
          for (ConstantId y : ys) {
            atom.args = {x, y};
            if (ds.evidence.entries().count(atom) == 0) {
              ds.evidence.Add(atom, false);
            }
          }
        }
      };
      add_absent_false("refers", symbols.Domain("paper"),
                       symbols.Domain("paper"));
      add_absent_false("wrote", symbols.Domain("author"),
                       symbols.Domain("paper"));
      break;
    }
  }
  BottomUpGrounder bu(ds.program, ds.evidence);
  TopDownGrounder td(ds.program, ds.evidence);
  auto rb = bu.Ground();
  auto rt = td.Ground();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  EXPECT_EQ(rb.value().atoms.num_atoms(), rt.value().atoms.num_atoms());
  EXPECT_EQ(rb.value().clauses.num_clauses(),
            rt.value().clauses.num_clauses());
  EXPECT_DOUBLE_EQ(rb.value().fixed_cost, rt.value().fixed_cost);
  EXPECT_EQ(ClauseSignatures(ds.program, rb.value()),
            ClauseSignatures(ds.program, rt.value()));
}

INSTANTIATE_TEST_SUITE_P(Datasets, GrounderEquivalenceTest,
                         ::testing::Range(0, 5));

// Optimizer lesions must not change grounding *results*, only speed.
class GroundingLesionTest : public ::testing::TestWithParam<int> {};

TEST_P(GroundingLesionTest, LesionedOptimizerSameGrounding) {
  RcParams p;
  p.num_clusters = 3;
  p.papers_per_cluster = 5;
  auto r = MakeRcDataset(p);
  ASSERT_TRUE(r.ok());
  Dataset ds = r.TakeValue();

  BottomUpGrounder reference(ds.program, ds.evidence);
  auto ref = reference.Ground();
  ASSERT_TRUE(ref.ok());

  int config = GetParam();
  OptimizerOptions opts;
  opts.enable_hash_join = (config & 1) != 0;
  opts.enable_merge_join = (config & 2) != 0;
  opts.fixed_join_order = (config & 4) != 0;
  BottomUpGrounder lesioned(ds.program, ds.evidence, GroundingOptions{}, opts);
  auto les = lesioned.Ground();
  ASSERT_TRUE(les.ok());
  EXPECT_EQ(ClauseSignatures(ds.program, ref.value()),
            ClauseSignatures(ds.program, les.value()));
}

INSTANTIATE_TEST_SUITE_P(Configs, GroundingLesionTest, ::testing::Range(0, 8));

TEST(GroundingTest, ExplainIsPopulated) {
  RcParams p;
  p.num_clusters = 2;
  p.papers_per_cluster = 3;
  auto r = MakeRcDataset(p);
  ASSERT_TRUE(r.ok());
  Dataset ds = r.TakeValue();
  BottomUpGrounder g(ds.program, ds.evidence);
  ASSERT_TRUE(g.Ground().ok());
  EXPECT_NE(g.explain().find("rule 0"), std::string::npos);
  EXPECT_NE(g.explain().find("Scan"), std::string::npos);
}

TEST(GroundingTest, StatsAreTracked) {
  RcParams p;
  p.num_clusters = 2;
  p.papers_per_cluster = 4;
  auto r = MakeRcDataset(p);
  ASSERT_TRUE(r.ok());
  Dataset ds = r.TakeValue();
  GroundingResult g = GroundBottomUp({std::move(ds.program), ds.evidence});
  EXPECT_GT(g.stats.candidates, 0u);
  EXPECT_GE(g.stats.seconds, 0.0);
}

}  // namespace
}  // namespace tuffy
