// Property-based tests over randomly generated MLN programs: the two
// grounders must agree exactly (and exhaustive top-down grounding must
// agree with a session's Open), lazy grounding must be a subset of eager
// grounding, the engine's cost accounting must match a from-scratch
// evaluation, and (when small enough) WalkSAT must reach the exact MAP.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "exec/tuffy_engine.h"
#include "ground/bottom_up_grounder.h"
#include "ground/top_down_grounder.h"
#include "infer/brute_force.h"
#include "serve/delta_grounder.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace tuffy {
namespace {

/// Builds a random MLN: closed-world relations r0(t,t), r1(t), open
/// relations q0(t,t), q1(t), a 10-constant domain, random evidence, and
/// 3-6 random rules with mixed signs, weights, and equality disjuncts.
struct RandomMln {
  MlnProgram program;
  EvidenceDb evidence;
};

RandomMln MakeRandomMln(uint64_t seed) {
  Rng rng(seed);
  RandomMln out;
  {
    Predicate r0;
    r0.name = "r0";
    r0.arg_types = {"t", "t"};
    r0.closed_world = true;
    EXPECT_TRUE(out.program.AddPredicate(std::move(r0)).ok());
    Predicate r1;
    r1.name = "r1";
    r1.arg_types = {"t"};
    r1.closed_world = true;
    EXPECT_TRUE(out.program.AddPredicate(std::move(r1)).ok());
    Predicate q0;
    q0.name = "q0";
    q0.arg_types = {"t", "t"};
    EXPECT_TRUE(out.program.AddPredicate(std::move(q0)).ok());
    Predicate q1;
    q1.name = "q1";
    q1.arg_types = {"t"};
    EXPECT_TRUE(out.program.AddPredicate(std::move(q1)).ok());
  }
  const int kConstants = 6;
  std::vector<ConstantId> consts;
  for (int i = 0; i < kConstants; ++i) {
    consts.push_back(
        out.program.symbols().Intern(StrFormat("C%d", i), "t"));
  }
  // Random evidence.
  int num_r0 = 4 + static_cast<int>(rng.Uniform(8));
  for (int i = 0; i < num_r0; ++i) {
    GroundAtom a;
    a.pred = 0;
    a.args = {consts[rng.Uniform(kConstants)],
              consts[rng.Uniform(kConstants)]};
    out.evidence.Add(std::move(a), true);
  }
  int num_r1 = 2 + static_cast<int>(rng.Uniform(4));
  for (int i = 0; i < num_r1; ++i) {
    GroundAtom a;
    a.pred = 1;
    a.args = {consts[rng.Uniform(kConstants)]};
    out.evidence.Add(std::move(a), true);
  }
  // A few open-predicate labels (true and false).
  for (int i = 0; i < 3; ++i) {
    GroundAtom a;
    a.pred = 3;
    a.args = {consts[rng.Uniform(kConstants)]};
    out.evidence.Add(std::move(a), rng.Bernoulli(0.6));
  }

  // Random rules.
  int num_rules = 3 + static_cast<int>(rng.Uniform(4));
  for (int r = 0; r < num_rules; ++r) {
    Clause clause;
    int num_vars = 1 + static_cast<int>(rng.Uniform(3));
    clause.num_vars = num_vars;
    for (int v = 0; v < num_vars; ++v) {
      clause.var_names.push_back(StrFormat("v%d", v));
    }
    int num_lits = 1 + static_cast<int>(rng.Uniform(3));
    bool has_positive_open = false;
    for (int l = 0; l < num_lits; ++l) {
      Literal lit;
      lit.pred = static_cast<PredicateId>(rng.Uniform(4));
      lit.positive = rng.Bernoulli(0.5);
      int arity = out.program.predicate(lit.pred).arity();
      for (int k = 0; k < arity; ++k) {
        if (rng.Bernoulli(0.85)) {
          lit.args.push_back(
              Term::Var(static_cast<VarId>(rng.Uniform(num_vars))));
        } else {
          lit.args.push_back(Term::Const(consts[rng.Uniform(kConstants)]));
        }
      }
      if (lit.positive && lit.pred >= 2) has_positive_open = true;
      clause.literals.push_back(std::move(lit));
    }
    // Give most rules an activation source so lazy grounding has work.
    if (!has_positive_open && rng.Bernoulli(0.7)) {
      Literal lit;
      lit.pred = 3;
      lit.positive = true;
      lit.args.push_back(
          Term::Var(static_cast<VarId>(rng.Uniform(num_vars))));
      clause.literals.push_back(std::move(lit));
    }
    // Remap to only the variables actually referenced by literals.
    std::vector<VarId> remap(num_vars, -1);
    VarId next = 0;
    for (Literal& lit : clause.literals) {
      for (Term& t : lit.args) {
        if (!t.is_var) continue;
        if (remap[t.id] < 0) remap[t.id] = next++;
        t.id = remap[t.id];
      }
    }
    clause.num_vars = next;
    clause.var_names.resize(next);
    for (VarId v = 0; v < next; ++v) clause.var_names[v] = StrFormat("v%d", v);
    if (next >= 2 && rng.Bernoulli(0.3)) {
      clause.equalities.push_back(EqualityConstraint{
          Term::Var(0), Term::Var(1), rng.Bernoulli(0.5)});
    }
    clause.weight = rng.Bernoulli(0.25) ? -(0.5 + rng.NextDouble())
                                        : (0.5 + rng.NextDouble() * 2.0);
    clause.rule_id = r;
    Status st = out.program.AddClause(std::move(clause));
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return out;
}

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

std::multiset<std::string> Signatures(const MlnProgram& program,
                                      const AtomStore& atoms,
                                      const GroundClauseStore& clauses) {
  std::multiset<std::string> out;
  for (const GroundClause& c : clauses.clauses()) {
    std::vector<std::string> lits;
    for (Lit l : c.lits) {
      lits.push_back((LitPositive(l) ? "" : "!") +
                     atoms.AtomName(program, LitAtom(l)));
    }
    std::sort(lits.begin(), lits.end());
    std::string sig = Join(lits, "|");
    sig += "@" + std::to_string(Bits(c.weight));
    out.insert(std::move(sig));
  }
  return out;
}

std::multiset<std::string> Signatures(const MlnProgram& program,
                                      const GroundingResult& g) {
  return Signatures(program, g.atoms, g.clauses);
}

class RandomMlnTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomMlnTest, GroundersAgreeExactly) {
  RandomMln mln = MakeRandomMln(GetParam());
  BottomUpGrounder bu(mln.program, mln.evidence);
  TopDownGrounder td(mln.program, mln.evidence);
  auto rb = bu.Ground();
  auto rt = td.Ground();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  EXPECT_EQ(Signatures(mln.program, rb.value()),
            Signatures(mln.program, rt.value()));
  EXPECT_EQ(rb.value().fixed_cost, rt.value().fixed_cost);
  EXPECT_EQ(rb.value().hard_contradiction, rt.value().hard_contradiction);

  // A session opens through the batch grounder, so the independent
  // cross-check of Open is exhaustive top-down grounding.
  GroundingOptions exhaustive;
  exhaustive.lazy_closure = false;
  TopDownGrounder td_exhaustive(mln.program, mln.evidence, exhaustive);
  auto re = td_exhaustive.Ground();
  ASSERT_TRUE(re.ok()) << re.status().ToString();
  DeltaGrounder session(mln.program, exhaustive, OptimizerOptions{});
  ASSERT_TRUE(session.Initialize(mln.evidence).ok());
  EXPECT_EQ(Signatures(mln.program, re.value()),
            Signatures(mln.program, session.atoms(), session.store()));
  EXPECT_EQ(Bits(re.value().fixed_cost), Bits(session.fixed_cost()));
  EXPECT_EQ(re.value().hard_contradiction, session.hard_contradiction());
}

TEST_P(RandomMlnTest, LazyGroundingIsSubsetOfEager) {
  RandomMln mln = MakeRandomMln(GetParam());
  GroundingOptions lazy;
  lazy.lazy_closure = true;
  GroundingOptions eager;
  eager.lazy_closure = false;
  BottomUpGrounder gl(mln.program, mln.evidence, lazy);
  BottomUpGrounder ge(mln.program, mln.evidence, eager);
  auto rl = gl.Ground();
  auto re = ge.Ground();
  ASSERT_TRUE(rl.ok());
  ASSERT_TRUE(re.ok());
  auto lazy_sigs = Signatures(mln.program, rl.value());
  auto eager_sigs = Signatures(mln.program, re.value());
  EXPECT_LE(lazy_sigs.size(), eager_sigs.size());
  for (const std::string& sig : lazy_sigs) {
    EXPECT_TRUE(eager_sigs.count(sig) > 0) << "lazy-only clause: " << sig;
  }
  // Fixed costs are identical: they come from evidence-resolved clauses,
  // which the closure never touches.
  EXPECT_NEAR(rl.value().fixed_cost, re.value().fixed_cost, 1e-9);
}

TEST_P(RandomMlnTest, EngineCostAccountingConsistent) {
  RandomMln mln = MakeRandomMln(GetParam());
  EngineOptions opts;
  opts.total_flips = 20000;
  opts.seed = GetParam() * 17 + 1;
  TuffyEngine engine(mln.program, mln.evidence, opts);
  auto result = engine.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const EngineResult& r = result.value();
  if (r.grounding.atoms.num_atoms() == 0) return;
  Problem whole = MakeWholeProblem(r.grounding.atoms.num_atoms(),
                                   r.grounding.clauses.clauses());
  EXPECT_NEAR(whole.EvalCost(r.truth, opts.hard_weight), r.search_cost,
              1e-9);
}

TEST_P(RandomMlnTest, WalkSatReachesExactMapWhenSmall) {
  RandomMln mln = MakeRandomMln(GetParam());
  BottomUpGrounder grounder(mln.program, mln.evidence);
  auto g = grounder.Ground();
  ASSERT_TRUE(g.ok());
  size_t n = g.value().atoms.num_atoms();
  if (n == 0 || n > 16) return;  // only check exact-solvable instances
  Problem whole = MakeWholeProblem(n, g.value().clauses.clauses());
  auto exact = ExactMap(whole, 1e6);
  ASSERT_TRUE(exact.ok());
  WalkSatOptions wopts;
  wopts.max_flips = 900000;
  Rng rng(GetParam() * 31 + 7);
  WalkSatResult r = WalkSat(&whole, wopts, &rng).Run();
  EXPECT_NEAR(r.best_cost, exact.value().cost, 1e-9);
}

TEST_P(RandomMlnTest, MarginalTaskProducesProbabilities) {
  RandomMln mln = MakeRandomMln(GetParam());
  EngineOptions opts;
  opts.task = InferenceTask::kMarginal;
  opts.mcsat_samples = 60;
  opts.mcsat_burn_in = 10;
  opts.seed = GetParam();
  TuffyEngine engine(mln.program, mln.evidence, opts);
  auto result = engine.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const EngineResult& r = result.value();
  ASSERT_EQ(r.marginals.size(), r.grounding.atoms.num_atoms());
  for (double m : r.marginals) {
    EXPECT_GE(m, 0.0);
    EXPECT_LE(m, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMlnTest, ::testing::Range(1, 13));

}  // namespace
}  // namespace tuffy
