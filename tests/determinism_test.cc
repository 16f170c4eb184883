#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>

#include "datagen/datasets.h"
#include "exec/tuffy_engine.h"
#include "ground/bottom_up_grounder.h"
#include "ground/top_down_grounder.h"
#include "infer/component_walksat.h"
#include "mln/parser.h"
#include "mrf/components.h"
#include "oracle_support.h"
#include "serve/delta_grounder.h"
#include "serve/inference_session.h"
#include "util/rng.h"

namespace tuffy {
namespace {

// Thread count is a wall-clock knob, never a semantics knob: per-
// component searchers own pre-derived RNG streams and write disjoint
// state, so identical seed + options must produce bit-identical results
// for any num_threads.

TEST(DeterminismTest, ComponentWalkSatThreadCountInvariant) {
  std::vector<GroundClause> clauses = MakeExample1Mrf(60);
  const size_t num_atoms = 120;
  ComponentSet components = DetectComponents(num_atoms, clauses);
  ASSERT_EQ(components.num_components(), 60u);

  ComponentSearchOptions opts;
  opts.total_flips = 30000;
  opts.rounds = 5;
  opts.use_exact = false;  // the point is the searchers' RNG streams
  for (uint64_t seed : {0ull, 1ull, 42ull}) {
    opts.num_threads = 1;
    ComponentSearchResult serial =
        RunComponentWalkSat(num_atoms, clauses, components, opts, seed);
    opts.num_threads = 4;
    ComponentSearchResult parallel =
        RunComponentWalkSat(num_atoms, clauses, components, opts, seed);
    EXPECT_EQ(serial.truth, parallel.truth) << "seed " << seed;
    EXPECT_EQ(serial.cost, parallel.cost) << "seed " << seed;
    EXPECT_EQ(serial.flips, parallel.flips) << "seed " << seed;
  }
}

TEST(DeterminismTest, EngineComponentModeThreadCountInvariant) {
  RcParams p;
  p.num_clusters = 4;
  p.papers_per_cluster = 5;
  auto ds = MakeRcDataset(p);
  ASSERT_TRUE(ds.ok());

  for (InferenceTask task : {InferenceTask::kMap, InferenceTask::kMarginal}) {
    EngineOptions opts;
    opts.search_mode = SearchMode::kComponentAware;
    opts.task = task;
    opts.total_flips = 30000;
    // The samplers' streams are the point; these components are within
    // the exact solver's width.
    opts.exact_fast_path = false;
    opts.mcsat_samples = 100;
    opts.num_threads = 1;
    TuffyEngine serial(ds.value().program, ds.value().evidence, opts);
    opts.num_threads = 4;
    TuffyEngine parallel(ds.value().program, ds.value().evidence, opts);
    auto rs = serial.Run();
    auto rp = parallel.Run();
    ASSERT_TRUE(rs.ok());
    ASSERT_TRUE(rp.ok());
    EXPECT_EQ(rs.value().truth, rp.value().truth);
    EXPECT_EQ(rs.value().search_cost, rp.value().search_cost);
    EXPECT_EQ(rs.value().marginals, rp.value().marginals);
  }
}

TEST(DeterminismTest, SessionThreadCountInvariantAcrossDeltas) {
  RcParams p;
  p.num_clusters = 3;
  p.papers_per_cluster = 4;
  auto ds = MakeRcDataset(p);
  ASSERT_TRUE(ds.ok());

  SessionOptions sopts;
  sopts.total_flips = 30000;
  sopts.seed = 5;
  sopts.exact_fast_path = false;  // warm re-search is the point
  sopts.num_threads = 1;
  InferenceSession serial(ds.value().program, sopts);
  sopts.num_threads = 4;
  InferenceSession parallel(ds.value().program, sopts);
  ASSERT_TRUE(serial.Open(ds.value().evidence).ok());
  ASSERT_TRUE(parallel.Open(ds.value().evidence).ok());
  EXPECT_EQ(serial.truth(), parallel.truth());
  EXPECT_EQ(serial.map_cost(), parallel.map_cost());

  EvidenceDelta delta;
  GroundAtom atom;
  atom.pred = ds.value().program.FindPredicate("refers").value();
  atom.args = {ds.value().program.symbols().Find("P0"),
               ds.value().program.symbols().Find("P9")};
  delta.Assert(atom, true);
  ASSERT_TRUE(serial.ApplyDelta(delta).ok());
  ASSERT_TRUE(parallel.ApplyDelta(delta).ok());
  EXPECT_EQ(serial.truth(), parallel.truth());
  EXPECT_EQ(serial.map_cost(), parallel.map_cost());
}

TEST(DeterminismTest, GroundingThreadCountInvariant) {
  // Parallel per-rule grounding merges rule-local contexts in rule-index
  // order, so the grounding result — atoms, clauses, ordering, stats —
  // must be bit-identical for any worker count.
  RcParams p;
  p.num_clusters = 6;
  p.papers_per_cluster = 6;
  auto ds = MakeRcDataset(p);
  ASSERT_TRUE(ds.ok());

  auto ground = [&](int threads) {
    GroundingOptions gopts;
    gopts.num_threads = threads;
    BottomUpGrounder g(ds.value().program, ds.value().evidence, gopts,
                       OptimizerOptions{});
    auto r = g.Ground();
    EXPECT_TRUE(r.ok());
    return r.TakeValue();
  };
  GroundingResult serial = ground(1);
  GroundingResult parallel = ground(4);
  ASSERT_EQ(serial.clauses.num_clauses(), parallel.clauses.num_clauses());
  for (size_t i = 0; i < serial.clauses.num_clauses(); ++i) {
    ASSERT_EQ(serial.clauses.clauses()[i].lits,
              parallel.clauses.clauses()[i].lits);
    ASSERT_EQ(serial.clauses.clauses()[i].weight,
              parallel.clauses.clauses()[i].weight);
  }
  ASSERT_EQ(serial.atoms.num_atoms(), parallel.atoms.num_atoms());
  for (AtomId a = 0; a < serial.atoms.num_atoms(); ++a) {
    ASSERT_TRUE(serial.atoms.atom(a) == parallel.atoms.atom(a));
  }
  EXPECT_EQ(serial.fixed_cost, parallel.fixed_cost);
  EXPECT_EQ(serial.stats.candidates, parallel.stats.candidates);
  EXPECT_EQ(serial.stats.working_set_bytes, parallel.stats.working_set_bytes);
}

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

/// Grounds `ds` bottom-up at 1, 2 and 4 threads and requires every
/// result bit-identical to the 1-thread one: atoms, clauses in order
/// (literals, weight bits, hardness), fixed-cost bits and every stats
/// counter. Leaves the 1-thread result in `*serial`.
void GroundAtEveryThreadCount(const MlnProgram& program,
                              const EvidenceDb& evidence,
                              GroundingResult* serial_out) {
  auto ground = [&](int threads) {
    GroundingOptions gopts;
    gopts.num_threads = threads;
    BottomUpGrounder g(program, evidence, gopts, OptimizerOptions{});
    auto r = g.Ground();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.TakeValue();
  };
  GroundingResult& serial = *serial_out;
  serial = ground(1);
  for (int threads : {2, 4}) {
    SCOPED_TRACE(threads);
    GroundingResult parallel = ground(threads);
    EXPECT_TRUE(parallel.atoms.num_atoms() == serial.atoms.num_atoms());
    for (AtomId a = 0; a < serial.atoms.num_atoms(); ++a) {
      ASSERT_TRUE(serial.atoms.atom(a) == parallel.atoms.atom(a)) << a;
    }
    ASSERT_EQ(serial.clauses.num_clauses(), parallel.clauses.num_clauses());
    for (size_t i = 0; i < serial.clauses.num_clauses(); ++i) {
      const GroundClause& a = serial.clauses.clauses()[i];
      const GroundClause& b = parallel.clauses.clauses()[i];
      ASSERT_EQ(a.lits, b.lits) << i;
      ASSERT_EQ(Bits(a.weight), Bits(b.weight)) << i;
      ASSERT_EQ(a.hard, b.hard) << i;
    }
    EXPECT_EQ(Bits(serial.fixed_cost), Bits(parallel.fixed_cost));
    EXPECT_EQ(serial.hard_contradiction, parallel.hard_contradiction);
    const GroundingStats& x = serial.stats;
    const GroundingStats& y = parallel.stats;
    EXPECT_EQ(x.candidates, y.candidates);
    EXPECT_EQ(x.satisfied_by_evidence, y.satisfied_by_evidence);
    EXPECT_EQ(x.pruned_by_antijoin, y.pruned_by_antijoin);
    EXPECT_EQ(x.pruned_inactive, y.pruned_inactive);
    EXPECT_EQ(x.hard_violations, y.hard_violations);
    EXPECT_EQ(x.fixed_cost_groundings, y.fixed_cost_groundings);
    EXPECT_EQ(x.closure_iterations, y.closure_iterations);
    EXPECT_EQ(x.morsels, y.morsels);
    EXPECT_EQ(x.working_set_bytes, y.working_set_bytes);
  }
}

TEST(DeterminismTest, SplitRuleGroundsIdenticallyAtEveryThreadCount) {
  // 40,000 publications put about 80,000 rows behind the publication
  // self-join rule, more than one morsel feeds. With 30 people every
  // other rule stays under a morsel, so a morsel count above the rule
  // count means the self-join rule was split.
  LpParams p;
  p.num_professors = 10;
  p.num_students = 20;
  p.num_courses = 20;
  p.num_publications = 40000;
  auto ds = MakeLpDataset(p);
  ASSERT_TRUE(ds.ok());
  const MlnProgram& program = ds.value().program;
  const EvidenceDb& evidence = ds.value().evidence;
  GroundingResult g;
  ASSERT_NO_FATAL_FAILURE(GroundAtEveryThreadCount(program, evidence, &g));
  EXPECT_GT(g.stats.morsels, program.clauses().size());
  EXPECT_GT(g.clauses.num_clauses(), 0u);

  // A session opens through the same Ground: its saved state after
  // Initialize, and after one delta that retracts a publication row, is
  // byte-identical at every grounding thread count.
  const PredicateId pub = program.FindPredicate("publication").value();
  const IdTable& rows = evidence.rows(pub, true);
  ASSERT_GT(rows.num_rows(), 0u);
  GroundAtom atom;
  atom.pred = pub;
  for (size_t c = 0; c < rows.num_cols(); ++c) {
    atom.args.push_back(static_cast<ConstantId>(rows.col(c)[0]));
  }
  EvidenceDelta delta;
  delta.Retract(atom);
  std::string serial_open;
  std::string serial_delta;
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    GroundingOptions gopts;
    gopts.num_threads = threads;
    DeltaGrounder session(program, gopts, OptimizerOptions{});
    ASSERT_TRUE(session.Initialize(evidence).ok());
    BinaryWriter opened;
    session.SaveState(&opened);
    auto applied = session.ApplyDelta(delta);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_GT(applied.value().rules_reground, 0u);
    BinaryWriter after;
    session.SaveState(&after);
    if (threads == 1) {
      serial_open = opened.Take();
      serial_delta = after.Take();
      continue;
    }
    EXPECT_TRUE(opened.data() == serial_open);
    EXPECT_TRUE(after.data() == serial_delta);
  }
  EXPECT_TRUE(serial_open != serial_delta);
}

/// -0.1 edge(x, y) over 450 nodes with two edges out of each: each of
/// the 900 groundings the evidence satisfies is fixed cost 0.1. The rule
/// ranges over all 450 x 450 node pairs, which bottom-up grounding cuts
/// into several morsels. 0.1 is not dyadic, so a running sum over the
/// groundings (89.99999999999916 in order) or over per-morsel partial
/// sums lands ulps away from the derivation, 900 x 0.1.
void EdgeProgram(MlnProgram* program, EvidenceDb* evidence) {
  constexpr int kNodes = 450;
  std::string ev;
  for (int i = 0; i < kNodes; ++i) {
    for (int k : {1, 7}) {
      ev += "edge(N" + std::to_string(i) + ", N" +
            std::to_string((i + k) % kNodes) + ")\n";
    }
  }
  auto parsed = ParseProgram("*edge(node, node)\n-0.1 edge(x, y)\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  *program = parsed.TakeValue();
  ASSERT_TRUE(ParseEvidence(ev, program, evidence).ok());
}

TEST(DeterminismTest, FixedCostIsCountTimesWeightOnEveryPath) {
  MlnProgram program;
  EvidenceDb evidence;
  ASSERT_NO_FATAL_FAILURE(EdgeProgram(&program, &evidence));
  const double expected = 900 * 0.1;

  GroundingResult g;
  ASSERT_NO_FATAL_FAILURE(GroundAtEveryThreadCount(program, evidence, &g));
  EXPECT_GT(g.stats.morsels, 2u);
  ASSERT_EQ(g.stats.fixed_cost_groundings, 900u);
  EXPECT_EQ(Bits(g.fixed_cost), Bits(expected));

  TopDownGrounder top_down(program, evidence);
  auto td = top_down.Ground();
  ASSERT_TRUE(td.ok()) << td.status().ToString();
  EXPECT_EQ(Bits(td.value().fixed_cost), Bits(expected));

  DeltaGrounder served(program, GroundingOptions{}, OptimizerOptions{});
  ASSERT_TRUE(served.Initialize(evidence).ok());
  EXPECT_EQ(Bits(served.fixed_cost()), Bits(expected));
}

/// A store's clauses as sorted literal-name lists with their weight bits,
/// hardness and rule counts: equal for two stores that hold the same
/// clauses under any atom numbering and clause order.
std::multiset<std::string> CanonicalClauses(const MlnProgram& program,
                                            const AtomStore& atoms,
                                            const GroundClauseStore& store) {
  std::multiset<std::string> out;
  for (size_t i = 0; i < store.num_clauses(); ++i) {
    const GroundClause& c = store.clauses()[i];
    std::vector<std::string> lits;
    for (Lit l : c.lits) {
      lits.push_back((LitPositive(l) ? "" : "!") +
                     atoms.AtomName(program, LitAtom(l)));
    }
    std::sort(lits.begin(), lits.end());
    std::string sig;
    for (const std::string& lit : lits) sig += lit + " | ";
    sig += std::to_string(Bits(c.weight)) + (c.hard ? " hard" : "");
    store.ForEachContribution(i, [&](int32_t rule, uint32_t count) {
      sig += " r" + std::to_string(rule) + "x" + std::to_string(count);
    });
    out.insert(std::move(sig));
  }
  return out;
}

TEST(DeterminismTest, HashAndTableAtomsMixInSplitRules) {
  // w(node, node, node) spans 170^3 > 2^22 possible atoms, so it has no
  // table cells and every context hash-interns its atoms; c(node, node)
  // has cells. Rules 0 and 2 feed 510 e rows x 170 nodes = 86,700 rows
  // each, more than one morsel, so their morsels hash-intern w atoms
  // that the merge must re-intern. Rule 2 names the tag constant T0 in a
  // node position, outside c's domain, so c(x, T0) is hash-interned too,
  // next to the table atom c(y, z) of the same clause. Rule 1 reaches
  // w atoms of rule 0 through the closure.
  const int n = 170;
  auto parsed = ParseProgram(
      "*e(node, node)\nw(node, node, node)\nc(node, node)\n*g(tag)\n"
      "1 e(x, y) => w(x, y, z) v c(y, z)\n"
      "0.5 c(x, y) => w(x, y, y)\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  MlnProgram program = parsed.TakeValue();
  const ConstantId t0 = program.symbols().Intern("T0", "tag");
  const PredicateId e = program.FindPredicate("e").value();
  const PredicateId c = program.FindPredicate("c").value();
  Clause rule2;
  rule2.num_vars = 3;
  rule2.var_names = {"x", "y", "z"};
  rule2.weight = 1.0;
  rule2.literals = {Literal{e, false, {Term::Var(0), Term::Var(1)}},
                    Literal{c, true, {Term::Var(0), Term::Const(t0)}},
                    Literal{c, true, {Term::Var(1), Term::Var(2)}}};
  ASSERT_TRUE(program.AddClause(rule2).ok());

  std::string ev = "g(T0)\n";
  for (int i = 0; i < n; ++i) {
    for (int k : {1, 7, 40}) {
      ev += "e(N" + std::to_string(i) + ", N" + std::to_string((i + k) % n) +
            ")\n";
    }
  }
  // Evidence on both kinds of open atom: satisfied clauses, dropped
  // literals.
  for (int i = 0; i < n; i += 3) {
    const std::string a = "N" + std::to_string(i);
    const std::string b = "N" + std::to_string((i + 1) % n);
    ev += "c(" + a + ", " + b + ")\n!c(" + b + ", " + a + ")\n";
    ev += "w(" + a + ", " + b + ", " + a + ")\n!w(" + a + ", " + b + ", " +
          b + ")\n";
  }
  EvidenceDb evidence;
  ASSERT_TRUE(ParseEvidence(ev, &program, &evidence).ok());
  ASSERT_EQ(program.symbols().Domain("node").size(), static_cast<size_t>(n));

  GroundingResult bottom_up;
  ASSERT_NO_FATAL_FAILURE(
      GroundAtEveryThreadCount(program, evidence, &bottom_up));
  EXPECT_GT(bottom_up.stats.morsels, program.clauses().size());
  size_t wide_atoms = 0;
  size_t outside_atoms = 0;
  for (AtomId a = 0; a < bottom_up.atoms.num_atoms(); ++a) {
    const GroundAtom& atom = bottom_up.atoms.atom(a);
    wide_atoms += atom.pred != c;
    outside_atoms += atom.pred == c && atom.args[1] == t0;
  }
  EXPECT_GT(wide_atoms, 0u);
  EXPECT_GT(outside_atoms, 0u);

  TopDownGrounder top_down_grounder(program, evidence);
  auto top_down = top_down_grounder.Ground();
  ASSERT_TRUE(top_down.ok()) << top_down.status().ToString();
  EXPECT_EQ(top_down.value().atoms.num_atoms(), bottom_up.atoms.num_atoms());
  EXPECT_EQ(top_down.value().fixed_cost, bottom_up.fixed_cost);
  EXPECT_EQ(CanonicalClauses(program, top_down.value().atoms,
                             top_down.value().clauses),
            CanonicalClauses(program, bottom_up.atoms, bottom_up.clauses));
}

// ---------------------------------------------------------------------
// Batch Run vs session Open: an exhaustive batch Ground and a serving
// session's Initialize (what InferenceSession::Open grounds with) derive
// clause weights and the fixed cost from the same counts, so they agree
// bit for bit.

void ExpectBatchGroundEqualsSessionOpen(const MlnProgram& program,
                                        const EvidenceDb& evidence) {
  GroundingOptions gopts;
  gopts.lazy_closure = false;
  BottomUpGrounder batch(program, evidence, gopts, OptimizerOptions{});
  auto g = batch.Ground();
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  DeltaGrounder session(program, gopts, OptimizerOptions{});
  ASSERT_TRUE(session.Initialize(evidence).ok());
  EXPECT_EQ(CanonicalClauses(program, g.value().atoms, g.value().clauses),
            CanonicalClauses(program, session.atoms(), session.store()));
  EXPECT_EQ(Bits(g.value().fixed_cost), Bits(session.fixed_cost()));
  EXPECT_EQ(g.value().hard_contradiction, session.hard_contradiction());
}

TEST(DeterminismTest, BatchGroundEqualsSessionOpenOnDatagenDefaults) {
  std::vector<std::pair<std::string, Result<Dataset>>> inputs;
  inputs.emplace_back("rc", MakeRcDataset(RcParams{}));
  inputs.emplace_back("ie", MakeIeDataset(IeParams{}));
  inputs.emplace_back("er", MakeErDataset(ErParams{}));
  inputs.emplace_back("lp", MakeLpDataset(LpParams{}));
  for (const auto& [name, ds] : inputs) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    ExpectBatchGroundEqualsSessionOpen(ds.value().program,
                                       ds.value().evidence);
  }
}

TEST(DeterminismTest, BatchGroundEqualsSessionOpenOnMergedGroundings) {
  // Ten groundings of 0.1 link(x, y) => label(y, A) produce the one unit
  // clause label(N0, A): 10 x 0.1 = 1, where adding 0.1 ten times in
  // order gives 0.99999999999999989.
  auto parsed = ParseProgram(
      "*link(node, node)\nlabel(node, cls)\n"
      "0.1 link(x, y) => label(y, A)\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  MlnProgram program = parsed.TakeValue();
  std::string ev;
  for (int i = 1; i <= 10; ++i) ev += "link(N" + std::to_string(i) + ", N0)\n";
  EvidenceDb evidence;
  ASSERT_TRUE(ParseEvidence(ev, &program, &evidence).ok());
  ExpectBatchGroundEqualsSessionOpen(program, evidence);

  MlnProgram edge_program;
  EvidenceDb edge_evidence;
  ASSERT_NO_FATAL_FAILURE(EdgeProgram(&edge_program, &edge_evidence));
  ExpectBatchGroundEqualsSessionOpen(edge_program, edge_evidence);
}

/// An MLN whose exhaustive grounding is `clauses`: one open predicate
/// holds(atom), a constant per atom, and one variable-free rule per
/// clause.
MlnProgram ProgramOfMrf(const std::vector<GroundClause>& clauses,
                        size_t num_atoms) {
  auto parsed = ParseProgram("holds(atom)\n");
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  MlnProgram program = parsed.TakeValue();
  const PredicateId holds = program.FindPredicate("holds").value();
  std::vector<ConstantId> constant(num_atoms);
  for (size_t a = 0; a < num_atoms; ++a) {
    constant[a] = program.symbols().Intern("A" + std::to_string(a), "atom");
  }
  for (const GroundClause& gc : clauses) {
    Clause rule;
    rule.weight = gc.weight;
    rule.hard = gc.hard;
    for (Lit l : gc.lits) {
      rule.literals.push_back(
          Literal{holds, LitPositive(l), {Term::Const(constant[LitAtom(l)])}});
    }
    EXPECT_TRUE(program.AddClause(std::move(rule)).ok());
  }
  return program;
}

TEST(DeterminismTest, SessionOpenMapCostEqualsRunOnTractablePrograms) {
  // Every component of these programs is inside the exact solver's
  // fragment, so both sides answer exactly and need no search budget.
  // Evidence on every fifth atom outside the hard clauses fixes some
  // groundings' cost and conditions others; a hard clause keeps its
  // atoms open, so the evidence cannot contradict it.
  for (uint64_t idx : {0, 1, 2, 3, 5, 8, 13}) {
    SCOPED_TRACE(idx);
    TractableMrfParams params = VariedTractableParams(idx);
    params.num_components = 8;
    params.min_atoms = 2;
    params.max_atoms = 8;
    params.max_width = 1 + static_cast<int>(idx % 3);
    size_t num_atoms = 0;
    const std::vector<GroundClause> mrf = MakeTractableMrf(params, &num_atoms);
    MlnProgram program = ProgramOfMrf(mrf, num_atoms);
    std::vector<uint8_t> in_hard(num_atoms, 0);
    for (const GroundClause& c : mrf) {
      for (Lit l : c.lits) in_hard[LitAtom(l)] |= c.hard;
    }
    EvidenceDb evidence;
    for (size_t a = 0; a < num_atoms; a += 5) {
      if (in_hard[a]) continue;
      GroundAtom atom;
      atom.pred = program.FindPredicate("holds").value();
      atom.args = {program.symbols().Find("A" + std::to_string(a))};
      evidence.Add(atom, a % 2 == 0);
    }
    ASSERT_NO_FATAL_FAILURE(
        ExpectBatchGroundEqualsSessionOpen(program, evidence));

    EngineOptions opts;
    opts.grounding.lazy_closure = false;
    TuffyEngine engine(program, evidence, opts);
    auto run = engine.Run();
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_GT(run.value().num_components, 1u);
    EXPECT_EQ(run.value().exact_components, run.value().num_components);

    InferenceSession session(program, TranslateSessionOptions(opts));
    ASSERT_TRUE(session.Open(evidence).ok());
    EXPECT_EQ(session.stats().components_exact, session.num_components());
    const double total = run.value().total_cost;
    EXPECT_NEAR(session.map_cost(), total,
                1e-9 * std::max(1.0, std::fabs(total)));
  }
}

TEST(DeterminismTest, DeriveSeedDecorrelatesAdjacentStreams) {
  // Adjacent (base, stream) pairs must not produce adjacent or shared
  // seeds — the defect the old `seed + 0x1000 + i` scheme had, where
  // base seed 42 stream 1 collided with base seed 43 stream 0.
  EXPECT_NE(DeriveSeed(42, 1), DeriveSeed(43, 0));
  EXPECT_NE(DeriveSeed(42, 0), DeriveSeed(42, 1));
  // Low bits should differ too (avalanche), not just the word.
  int differing_low_bits = 0;
  for (uint64_t i = 0; i < 64; ++i) {
    uint64_t a = DeriveSeed(7, i) & 0xFFFF;
    uint64_t b = DeriveSeed(7, i + 1) & 0xFFFF;
    if (a != b) ++differing_low_bits;
  }
  EXPECT_EQ(differing_low_bits, 64);
}

}  // namespace
}  // namespace tuffy
