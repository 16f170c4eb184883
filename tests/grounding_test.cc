#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "datagen/datasets.h"
#include "ground/atom_loader.h"
#include "ground/bottom_up_grounder.h"
#include "ground/top_down_grounder.h"
#include "mln/parser.h"

namespace tuffy {
namespace {

/// Canonical signature of a grounding result, independent of atom-id
/// assignment order: each clause rendered with printed atom names, sorted,
/// and its weight's exact bits.
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
    uint64_t bits;
    std::memcpy(&bits, &c.weight, sizeof(bits));
    sig += "w=" + std::to_string(bits) + " h=" + (c.hard ? "1" : "0");
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
            if (ds.evidence.Explicit(atom) == Truth::kUnknown) {
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
  EXPECT_EQ(rb.value().fixed_cost, rt.value().fixed_cost);
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
  EXPECT_GT(g.stats.working_set_bytes, 0u);
}

/// The names of the tables LoadMlnTables builds for `program`.
std::set<std::string> LoadedDomainTables(const MlnProgram& program,
                                         const EvidenceDb& evidence) {
  Catalog catalog;
  EXPECT_TRUE(LoadMlnTables(program, evidence, &catalog).ok());
  std::set<std::string> names;
  for (const char* type : {"person", "pub", "course", "term", "t1", "t2",
                           "t3", "t4", "t5"}) {
    if (catalog.HasTable(DomainTableName(type))) {
      names.insert(DomainTableName(type));
    }
  }
  EXPECT_EQ(names.size(), catalog.num_tables());
  return names;
}

TEST(GroundingTest, OnlyScannedDomainsAreLoaded) {
  // LP's plans scan one domain: `person`, for the variables of its
  // open-world advisedBy literals. `pub`, `course` and `term` are bound
  // by binding literals wherever they occur.
  auto lp = MakeLpDataset(LpParams{});
  ASSERT_TRUE(lp.ok());
  EXPECT_EQ(LoadedDomainTables(lp.value().program, lp.value().evidence),
            std::set<std::string>{"_dom_person"});

  // x is bound by a binding literal, z only by a negative open-world
  // literal, y only by a positive closed-world one, w is existential,
  // and t5 is used by no rule: only t2 and t3 are scanned.
  ParsedInput in = Parse(
      "*a(t1)\n*b(t2)\no(t3)\nc(t4)\n*unused(t5)\n"
      "1 a(x), o(z) => b(y)\n"
      "1 a(x) => EXIST w c(w)\n",
      "a(X1)\nb(Y1)\nunused(U1)\n");
  EXPECT_EQ(LoadedDomainTables(in.program, in.evidence),
            (std::set<std::string>{"_dom_t2", "_dom_t3"}));
  for (size_t c = 0; c < in.program.clauses().size(); ++c) {
    for (VarId v : DomainScannedVars(in.program, static_cast<int>(c))) {
      EXPECT_TRUE(in.program.clauses()[c].var_types[v] == "t2" ||
                  in.program.clauses()[c].var_types[v] == "t3");
    }
  }
  GroundingResult g = GroundBottomUp(in);  // every plan finds its tables
  EXPECT_GT(g.stats.candidates, 0u);
}

// ------------------------------------------- the stores' shared id index

TEST(GroundClauseStoreTest, ReAddAcrossGrowthMergesIntoFirstInsert) {
  // 120K clauses take the index from 1024 slots past 2^17 (7+ doublings).
  constexpr size_t kClauses = 120000;
  GroundClauseStore store;
  for (size_t i = 0; i < kClauses; ++i) {
    const AtomId a = static_cast<AtomId>(i);
    GroundClause c;
    c.lits = {MakeLit(a + 1 + i % 7, false), MakeLit(a, true)};
    c.weight = 1.0 + static_cast<double>(i % 3);
    c.rule_id = static_cast<int>(i % 5);
    ASSERT_EQ(store.Add(std::move(c)), i);
  }
  // Re-add every clause, literals in the other order; odd clauses from a
  // second rule, so both the inline and the side-table count are hit.
  for (size_t i = 0; i < kClauses; ++i) {
    const AtomId a = static_cast<AtomId>(i);
    GroundClause c;
    c.lits = {MakeLit(a, true), MakeLit(a + 1 + i % 7, false)};
    c.weight = 1.0 + static_cast<double>(i % 3);
    c.rule_id = static_cast<int>(i % 5) + (i % 2 == 1 ? 5 : 0);
    ASSERT_EQ(store.Add(std::move(c)), i);
  }
  ASSERT_EQ(store.num_clauses(), kClauses);
  for (size_t i = 0; i < kClauses; ++i) {
    const AtomId a = static_cast<AtomId>(i);
    std::vector<Lit> want = {MakeLit(a, true), MakeLit(a + 1 + i % 7, false)};
    std::sort(want.begin(), want.end());
    const GroundClause& c = store.clauses()[i];
    ASSERT_EQ(c.lits, want) << "clause " << i;
    ASSERT_DOUBLE_EQ(c.weight, 2.0 * (1.0 + static_cast<double>(i % 3)));
    ASSERT_EQ(c.rule_id, static_cast<int>(i % 5));
    uint32_t groundings = 0;
    int sources = 0;
    store.ForEachContribution(i, [&](int, uint32_t count) {
      groundings += count;
      ++sources;
    });
    ASSERT_EQ(groundings, 2u) << "clause " << i;
    ASSERT_EQ(sources, i % 2 == 1 ? 2 : 1) << "clause " << i;
  }
}

TEST(AtomStoreTest, GetOrCreateAndFindRoundTripAcrossGrowth) {
  AtomStore empty;
  AtomId id = 0;
  EXPECT_FALSE(empty.Find(GroundAtom{0, {1, 2}}, &id));

  constexpr int kAtoms = 120000;
  AtomStore store;
  auto atom_of = [](int i) {
    return GroundAtom{i % 3, {i, i / 7}};
  };
  for (int i = 0; i < kAtoms; ++i) {
    ASSERT_EQ(store.GetOrCreate(atom_of(i)), static_cast<AtomId>(i));
  }
  for (int i = 0; i < kAtoms; ++i) {
    ASSERT_EQ(store.GetOrCreate(atom_of(i)), static_cast<AtomId>(i));
    ASSERT_TRUE(store.Find(atom_of(i), &id));
    ASSERT_EQ(id, static_cast<AtomId>(i));
    ASSERT_EQ(store.atom(id), atom_of(i));
  }
  EXPECT_EQ(store.num_atoms(), static_cast<size_t>(kAtoms));
  EXPECT_FALSE(store.Find(GroundAtom{3, {0, 0}}, &id));      // no such pred
  EXPECT_FALSE(store.Find(GroundAtom{0, {kAtoms, 0}}, &id));  // no such args
  EXPECT_FALSE(store.Find(GroundAtom{1, {0, 0}}, &id));       // other pred
}

TEST(IdIndexTest, InformationExtractionKeysDoNotCluster) {
  // IE-shaped clause keys over a citation x position x field atom grid:
  // per (citation, position), a unit clause for each of its 4 field
  // atoms, then a negative pair clause for each of the 6 field pairs.
  // Their LitVectorHash values differ only in low bits, so masking the
  // hash directly piles them into a few runs.
  constexpr int kCitations = 3000, kPositions = 5, kFields = 4;
  std::vector<std::vector<Lit>> keys;
  for (int c = 0; c < kCitations; ++c) {
    for (int p = 0; p < kPositions; ++p) {
      const AtomId base = static_cast<AtomId>((c * kPositions + p) * kFields);
      for (int f = 0; f < kFields; ++f) {
        keys.push_back({MakeLit(base + f, true)});
      }
      for (int f = 0; f < kFields; ++f) {
        for (int g = f + 1; g < kFields; ++g) {
          std::vector<Lit> pair = {MakeLit(base + f, false),
                                   MakeLit(base + g, false)};
          std::sort(pair.begin(), pair.end());
          keys.push_back(std::move(pair));
        }
      }
    }
  }
  ASSERT_EQ(keys.size(), 150000u);
  // The table doubles from a power of two at load 1/2, so 2^17 keys fill
  // 2^18 slots to exactly one half.
  constexpr size_t kHalfLoad = size_t{1} << 17;
  IdIndex index;
  double at_half_load = 0.0;
  for (size_t k = 0; k < keys.size(); ++k) {
    bool added = false;
    const uint32_t id = index.FindOrAdd(
        LitVectorHash{}(keys[k]),
        [&](uint32_t i) { return keys[i] == keys[k]; }, &added);
    ASSERT_TRUE(added);
    ASSERT_EQ(id, k);
    if (index.size() == kHalfLoad) at_half_load = index.MeanProbeLength();
  }
  EXPECT_LE(at_half_load, 4.0);
  EXPECT_GE(at_half_load, 1.0);
  EXPECT_LE(index.MeanProbeLength(), 4.0);
  for (size_t k = 0; k < keys.size(); k += 997) {
    ASSERT_EQ(index.Find(LitVectorHash{}(keys[k]),
                         [&](uint32_t i) { return keys[i] == keys[k]; }),
              k);
  }
  const std::vector<Lit> absent = {MakeLit(0, false)};
  EXPECT_EQ(index.Find(LitVectorHash{}(absent),
                       [&](uint32_t i) { return keys[i] == absent; }),
            IdIndex::kAbsent);
}

TEST(IdIndexTest, SwapRemoveMatchesAModelUnderChurn) {
  // The owner's keys, indexed by id and swap-removed in step with the
  // index (as EvidenceDb swap-removes a relation's rows). Two keys share
  // each hash, so probes also reject equal cached hashes by key.
  std::vector<uint64_t> keys;
  IdIndex index;
  std::unordered_map<uint64_t, uint32_t> model;  // live key -> id
  std::unordered_set<uint64_t> removed;
  const auto hash = [](uint64_t key) { return static_cast<size_t>(key / 2); };
  const auto find = [&](uint64_t key) {
    return index.Find(hash(key), [&](uint32_t i) { return keys[i] == key; });
  };
  const auto check = [&] {
    for (const auto& [key, id] : model) ASSERT_EQ(find(key), id) << key;
    for (uint64_t key : removed) ASSERT_EQ(find(key), IdIndex::kAbsent) << key;
  };
  Rng rng(2026);
  for (int step = 0; step < 20000; ++step) {
    if (keys.empty() || rng.Uniform(3) != 0) {
      const uint64_t key = rng.Uniform(1 << 16);
      bool added = false;
      const uint32_t id = index.FindOrAdd(
          hash(key), [&](uint32_t i) { return keys[i] == key; }, &added);
      ASSERT_EQ(added, model.count(key) == 0);
      if (added) {
        ASSERT_EQ(id, keys.size());
        keys.push_back(key);
        model[key] = id;
        removed.erase(key);
      } else {
        ASSERT_EQ(id, model[key]);
      }
    } else {
      const uint32_t id = static_cast<uint32_t>(rng.Uniform(keys.size()));
      const uint64_t key = keys[id];
      index.SwapRemove(id);
      keys[id] = keys.back();
      keys.pop_back();
      model.erase(key);
      if (id < keys.size()) model[keys[id]] = id;
      removed.insert(key);
    }
    ASSERT_EQ(index.size(), keys.size());
    if (step % 1000 == 999) check();
  }
  check();
  EXPECT_GT(keys.size(), 4096u);  // grown through at least three doublings
  EXPECT_LT(index.MeanProbeLength(), 2.0);
}

TEST(IdIndexTest, SwapRemoveAcrossTheWrapPoint) {
  // Keys homed on the last two of the first table's 1024 slots: their
  // probe run wraps to slot 0. Removing from anywhere in the run keeps
  // the rest reachable, and renumbering moves the last id.
  std::vector<size_t> hashes;
  for (size_t h = 0; hashes.size() < 8; ++h) {
    if ((SplitMix64(h) & 1023) >= 1022) hashes.push_back(h);
  }
  IdIndex index;
  std::vector<size_t> keys;  // id -> hash; the hash is the key
  for (size_t h : hashes) {
    bool added = false;
    index.FindOrAdd(h, [&](uint32_t i) { return keys[i] == h; }, &added);
    ASSERT_TRUE(added);
    keys.push_back(h);
  }
  for (uint32_t id : {2u, 0u, 3u, 1u}) {
    const size_t gone = keys[id];
    index.SwapRemove(id);
    keys[id] = keys.back();
    keys.pop_back();
    EXPECT_EQ(index.Find(gone, [&](uint32_t i) { return keys[i] == gone; }),
              IdIndex::kAbsent);
    for (uint32_t i = 0; i < keys.size(); ++i) {
      const size_t h = keys[i];
      EXPECT_EQ(index.Find(h, [&](uint32_t j) { return keys[j] == h; }), i);
    }
  }
}

}  // namespace
}  // namespace tuffy
