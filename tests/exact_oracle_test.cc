// The exact-inference oracle harness (docs/INFERENCE_EXACT.md): the
// tractable-fragment detector and linear-time solver are validated
// against brute-force enumeration on randomized generated programs, and
// then used as a ground-truth oracle for the samplers — WalkSAT must
// reach the exact MAP cost, MC-SAT marginals must land within sampling
// tolerance of the exact ones, and the engine/serving exact fast path
// must be a pure speedup (same answers, zero flips, bit-identical
// across thread counts).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "exec/tuffy_engine.h"
#include "infer/brute_force.h"
#include "infer/component_walksat.h"
#include "infer/exact/exact_solver.h"
#include "infer/exact/tractable.h"
#include "infer/mcsat.h"
#include "obs/metrics.h"
#include "oracle_support.h"
#include "serve/delta_grounder.h"
#include "serve/inference_session.h"

namespace tuffy {
namespace {

GroundClause C(std::vector<Lit> lits, double w, bool hard = false) {
  GroundClause c;
  c.lits = std::move(lits);
  c.weight = w;
  c.hard = hard;
  return c;
}

Problem P(size_t num_atoms, const std::vector<GroundClause>& clauses) {
  return MakeWholeProblem(num_atoms, clauses);
}

constexpr double kHardWeight = 1e6;

void CheckComponentAgainstBruteForce(const Problem& problem,
                                     const std::string& label) {
  ExactSolveResult ex = TrySolveExact(problem, kHardWeight, true);
  ASSERT_TRUE(ex.solved) << label << " fragment "
                         << ExactFragmentName(ex.fragment);

  // The returned MAP cost is its own truth's EvalCost...
  EXPECT_DOUBLE_EQ(problem.EvalCost(ex.truth, kHardWeight), ex.map_cost)
      << label;
  // ...and globally optimal (ties may pick a different world).
  auto map = ExactMap(problem, kHardWeight);
  ASSERT_TRUE(map.ok()) << label;
  EXPECT_DOUBLE_EQ(ex.map_cost, map.value().cost) << label;

  auto marg = ExactMarginals(problem);
  ASSERT_TRUE(marg.ok()) << label;
  ASSERT_EQ(ex.marginals.size(), marg.value().size()) << label;
  for (size_t a = 0; a < marg.value().size(); ++a) {
    EXPECT_NEAR(ex.marginals[a], marg.value()[a], 1e-9)
        << label << " atom " << a;
  }

  ASSERT_TRUE(ex.log_z_valid) << label;
  auto lz = ExactLogZ(problem);
  ASSERT_TRUE(lz.ok()) << label;
  EXPECT_NEAR(ex.log_z, lz.value(),
              1e-9 * std::max(1.0, std::fabs(lz.value())))
      << label;
}

// ---------------------------------------------------------------------
// Detector classification on hand-built problems.

TEST(TractableDetectorTest, EmptyAndClauseLessProblemsAreUnitOnly) {
  TractableStructure st = AnalyzeTractable(P(3, {}));
  EXPECT_EQ(st.fragment, ExactFragment::kUnitOnly);
  // Free atoms: MAP-default false, marginal 1/2, ln Z = n ln 2.
  ExactSolveResult ex = TrySolveExact(P(3, {}), kHardWeight, true);
  ASSERT_TRUE(ex.solved);
  EXPECT_EQ(ex.truth, (std::vector<uint8_t>{0, 0, 0}));
  EXPECT_DOUBLE_EQ(ex.map_cost, 0.0);
  ASSERT_TRUE(ex.log_z_valid);
  EXPECT_NEAR(ex.log_z, 3 * std::log(2.0), 1e-12);
  for (double m : ex.marginals) EXPECT_DOUBLE_EQ(m, 0.5);
}

TEST(TractableDetectorTest, UnitClausesOnlyAreUnitOnly) {
  Problem p = P(2, {C({MakeLit(0, true)}, 1.0),
                    C({MakeLit(1, false)}, 0.5)});
  EXPECT_EQ(AnalyzeTractable(p).fragment, ExactFragment::kUnitOnly);
  ExactSolveResult ex = TrySolveExact(p, kHardWeight, false);
  ASSERT_TRUE(ex.solved);
  EXPECT_EQ(ex.truth, (std::vector<uint8_t>{1, 0}));
  EXPECT_DOUBLE_EQ(ex.map_cost, 0.0);
}

TEST(TractableDetectorTest, ChainAndTreeAreForest) {
  Problem chain = P(3, {C({MakeLit(0, true), MakeLit(1, false)}, 1.0),
                        C({MakeLit(1, true), MakeLit(2, false)}, 1.0)});
  TractableStructure st = AnalyzeTractable(chain);
  EXPECT_EQ(st.fragment, ExactFragment::kBoundedWidth);
  EXPECT_EQ(st.width, 1);
  Problem star = P(4, {C({MakeLit(0, true), MakeLit(1, true)}, 1.0),
                       C({MakeLit(0, true), MakeLit(2, true)}, 1.0),
                       C({MakeLit(0, true), MakeLit(3, true)}, 1.0)});
  st = AnalyzeTractable(star);
  EXPECT_EQ(st.fragment, ExactFragment::kBoundedWidth);
  EXPECT_EQ(st.width, 1);
  // Ties on fill go to the lower degree, then the lower id: leaves 1 and
  // 2 first, then the hub (now degree 1) before leaf 3.
  EXPECT_EQ(st.order, (std::vector<uint32_t>{1, 2, 0, 3}));
}

TEST(TractableDetectorTest, ParallelClausesOverOnePairAreNotACycle) {
  Problem p = P(2, {C({MakeLit(0, true), MakeLit(1, true)}, 1.0),
                    C({MakeLit(0, false), MakeLit(1, true)}, 0.25),
                    C({MakeLit(0, true), MakeLit(1, false)}, 2.0, true)});
  TractableStructure st = AnalyzeTractable(p);
  EXPECT_EQ(st.fragment, ExactFragment::kBoundedWidth);
  EXPECT_EQ(st.edges.size(), 1u);
  EXPECT_EQ(st.width, 1);
}

TEST(TractableDetectorTest, TriangleIsSolvedExactly) {
  Problem p = P(3, {C({MakeLit(0, true), MakeLit(1, true)}, 1.0),
                    C({MakeLit(1, true), MakeLit(2, true)}, 1.0),
                    C({MakeLit(0, true), MakeLit(2, true)}, 1.0)});
  TractableStructure st = AnalyzeTractable(p);
  EXPECT_EQ(st.fragment, ExactFragment::kBoundedWidth);
  EXPECT_EQ(st.width, 2);
  CheckComponentAgainstBruteForce(p, "triangle");
}

// No atom of a ring has adjacent neighbours, so each elimination adds a
// fill edge until a triangle remains: this checks the fill bookkeeping.
TEST(TractableDetectorTest, RingNeedsFillEdges) {
  std::vector<GroundClause> clauses;
  for (AtomId a = 0; a < 8; ++a) {
    clauses.push_back(C({MakeLit(a, true), MakeLit((a + 1) % 8, true)}, 1.0));
    clauses.push_back(
        C({MakeLit(a, false), MakeLit((a + 1) % 8, false)}, 0.5));
  }
  Problem p = P(8, clauses);
  TractableStructure st = AnalyzeTractable(p);
  EXPECT_EQ(st.fragment, ExactFragment::kBoundedWidth);
  EXPECT_EQ(st.width, 2);
  CheckComponentAgainstBruteForce(p, "8-ring");
}

// A pairwise clique of n atoms has width n - 1 under every order: at the
// cap it is solved, one atom above it is rejected.
TEST(TractableDetectorTest, WidthAboveCapIsRejected) {
  auto clique = [](uint32_t n) {
    std::vector<GroundClause> clauses;
    for (AtomId a = 0; a < n; ++a) {
      for (AtomId b = a + 1; b < n; ++b) {
        clauses.push_back(C({MakeLit(a, (a + b) % 2 == 0), MakeLit(b, true)},
                            0.125 * (1 + (a * 7 + b) % 5)));
      }
    }
    return P(n, clauses);
  };
  Problem at_cap = clique(kMaxExactWidth + 1);
  TractableStructure st = AnalyzeTractable(at_cap);
  EXPECT_EQ(st.fragment, ExactFragment::kBoundedWidth);
  EXPECT_EQ(st.width, kMaxExactWidth);
  CheckComponentAgainstBruteForce(at_cap, "clique at the cap");

  Problem above = clique(kMaxExactWidth + 2);
  EXPECT_EQ(AnalyzeTractable(above).fragment, ExactFragment::kNotTractable);
  EXPECT_FALSE(TrySolveExact(above, kHardWeight, false).solved);
}

TEST(TractableDetectorTest, WideClauseIsRejected) {
  // The pairs alone would be a chain of width 1; the 3-atom residual
  // clause rejects the component before any elimination order is built.
  Problem p = P(3, {C({MakeLit(0, true), MakeLit(1, true), MakeLit(2, true)},
                      1.0),
                    C({MakeLit(0, true), MakeLit(1, false)}, 1.0),
                    C({MakeLit(1, true), MakeLit(2, false)}, 1.0)});
  TractableStructure st = AnalyzeTractable(p);
  EXPECT_EQ(st.fragment, ExactFragment::kNotTractable);
  EXPECT_TRUE(st.order.empty());
  EXPECT_FALSE(TrySolveExact(p, kHardWeight, false).solved);
}

TEST(TractableDetectorTest, HardUnitShrinksWideClauseToConditioned) {
  // Forcing atom 0 true kills the !0 literal, leaving a binary residual.
  Problem p = P(3, {C({MakeLit(0, true)}, 0.0, true),
                    C({MakeLit(0, false), MakeLit(1, true), MakeLit(2, true)},
                      1.5)});
  EXPECT_EQ(AnalyzeTractable(p).fragment, ExactFragment::kConditioned);
  ExactSolveResult ex = TrySolveExact(p, kHardWeight, true);
  ASSERT_TRUE(ex.solved);
  EXPECT_EQ(ex.truth[0], 1);
  auto marg = ExactMarginals(p);
  ASSERT_TRUE(marg.ok());
  for (size_t a = 0; a < 3; ++a) {
    EXPECT_NEAR(ex.marginals[a], marg.value()[a], 1e-12);
  }
}

TEST(TractableDetectorTest, ContradictoryHardUnitsAreRejected) {
  Problem p = P(1, {C({MakeLit(0, true)}, 0.0, true),
                    C({MakeLit(0, false)}, 0.0, true)});
  EXPECT_EQ(AnalyzeTractable(p).fragment, ExactFragment::kNotTractable);
  EXPECT_FALSE(TrySolveExact(p, kHardWeight, false).solved);
}

// ---------------------------------------------------------------------
// Exact solver vs brute-force enumeration on randomized programs.

TEST(ExactOracleTest, MatchesBruteForceOnRandomizedPrograms) {
  size_t programs = 0;
  size_t components = 0;
  for (int width = 1; width <= 4; ++width) {
    for (uint64_t idx = 0; idx < 110; ++idx) {
      TractableMrfParams params = VariedTractableParams(idx);
      params.max_width = width;
      size_t num_atoms = 0;
      std::vector<GroundClause> clauses = MakeTractableMrf(params, &num_atoms);
      ASSERT_GT(num_atoms, 0u);
      std::vector<SubProblem> subs = SplitComponents(num_atoms, clauses);
      for (size_t c = 0; c < subs.size(); ++c) {
        CheckComponentAgainstBruteForce(
            subs[c].problem, "width " + std::to_string(width) + " program " +
                                 std::to_string(idx) + " comp " +
                                 std::to_string(c));
        ++components;
      }
      ++programs;
    }
  }
  EXPECT_EQ(programs, 440u);
  EXPECT_GT(components, programs);
}

TEST(ExactOracleTest, TwentyAtomComponentsMatchBruteForce) {
  for (int width = 1; width <= 4; ++width) {
    for (uint64_t seed : {17u, 99u}) {
      TractableMrfParams params;
      params.num_components = 1;
      params.min_atoms = 20;
      params.max_atoms = 20;
      params.hard_prob = 0.2;
      params.conditioned_prob = seed % 2 == 0 ? 0.0 : 1.0;
      params.max_width = width;
      params.seed = seed;
      size_t num_atoms = 0;
      std::vector<GroundClause> clauses = MakeTractableMrf(params, &num_atoms);
      ASSERT_EQ(num_atoms, 20u);
      Problem whole = MakeWholeProblem(num_atoms, clauses);
      EXPECT_LE(AnalyzeTractable(whole).width, width);
      CheckComponentAgainstBruteForce(
          whole,
          "width " + std::to_string(width) + " seed " + std::to_string(seed));
    }
  }
}

// ---------------------------------------------------------------------
// The oracle tests the samplers.

TEST(ExactOracleTest, WalkSatReachesExactMapCost) {
  for (auto [idx, width] : std::vector<std::pair<uint64_t, int>>{
           {0, 1}, {3, 1}, {7, 1}, {10, 1}, {1, 3}, {4, 3}, {8, 3}}) {
    TractableMrfParams params = VariedTractableParams(idx);
    params.num_components = 3;
    params.max_atoms = 6;
    params.max_width = width;
    size_t num_atoms = 0;
    std::vector<GroundClause> clauses = MakeTractableMrf(params, &num_atoms);
    ComponentSet comps = DetectComponents(num_atoms, clauses);

    ComponentSearchOptions copts;
    copts.total_flips = 400000;
    copts.hard_weight = kHardWeight;
    copts.use_exact = false;
    ComponentSearchResult sampler =
        RunComponentWalkSat(num_atoms, clauses, comps, copts, 5);
    EXPECT_EQ(sampler.exact_components, 0u);
    EXPECT_GT(sampler.flips, 0u);

    copts.use_exact = true;
    ComponentSearchResult exact =
        RunComponentWalkSat(num_atoms, clauses, comps, copts, 5);
    EXPECT_EQ(exact.exact_components, comps.num_components());
    EXPECT_EQ(exact.flips, 0u);

    // Dyadic weights make per-component costs FP-exact, so a converged
    // sampler lands on the identical double.
    EXPECT_DOUBLE_EQ(exact.cost, sampler.cost)
        << "program " << idx << " width " << width;
    ASSERT_EQ(exact.truth.size(), sampler.truth.size());
  }
}

// Routing components to the exact solver leaves the sampled ones alone:
// a component above the width cap keeps its seeds and flip budget, so
// its truth and flips are bit-identical with the fast path on or off.
TEST(ExactOracleTest, ExactRoutingLeavesCyclicComponentAlone) {
  TractableMrfParams params = VariedTractableParams(5);
  params.num_components = 4;
  size_t forest_atoms = 0;
  std::vector<GroundClause> clauses = MakeTractableMrf(params, &forest_atoms);
  // The sampled component: a pairwise clique one atom wider than the cap,
  // whose "exactly one of each pair" clauses always leave some violated.
  const size_t wide = kMaxExactWidth + 2;
  for (size_t i = 0; i < wide; ++i) {
    for (size_t j = i + 1; j < wide; ++j) {
      const AtomId a = static_cast<AtomId>(forest_atoms + i);
      const AtomId b = static_cast<AtomId>(forest_atoms + j);
      clauses.push_back(
          GroundClause{{MakeLit(a, true), MakeLit(b, true)}, 1.0});
      clauses.push_back(
          GroundClause{{MakeLit(a, false), MakeLit(b, false)}, 1.0});
    }
  }
  const size_t num_atoms = forest_atoms + wide;
  ComponentSet comps = DetectComponents(num_atoms, clauses);
  ComponentSet forest = comps;
  forest.atoms.pop_back();  // components are ordered by smallest atom
  forest.clauses.pop_back();
  ASSERT_EQ(comps.atoms.back().front(), forest_atoms);

  ComponentSearchOptions copts;
  copts.total_flips = 50000;
  copts.hard_weight = kHardWeight;
  ComponentSearchResult on =
      RunComponentWalkSat(num_atoms, clauses, comps, copts, 3);
  copts.use_exact = false;
  ComponentSearchResult off =
      RunComponentWalkSat(num_atoms, clauses, comps, copts, 3);
  ComponentSearchResult forest_off =
      RunComponentWalkSat(num_atoms, clauses, forest, copts, 3);

  // Exact components spend no flips, so `on` counts the ring's alone.
  EXPECT_EQ(on.exact_components, forest.num_components());
  EXPECT_GT(on.flips, 0u);
  EXPECT_EQ(on.flips, off.flips - forest_off.flips);
  for (AtomId a : comps.atoms.back()) {
    EXPECT_EQ(on.truth[a], off.truth[a]) << "atom " << a;
  }
}

TEST(ExactOracleTest, McSatMarginalsWithinToleranceOfExact) {
  size_t programs = 0;
  for (uint64_t idx = 0; idx < 100; ++idx) {
    TractableMrfParams params = VariedTractableParams(idx);
    params.num_components = 1;
    params.max_atoms = 2 + static_cast<int>(idx % 5);
    size_t num_atoms = 0;
    std::vector<GroundClause> clauses = MakeTractableMrf(params, &num_atoms);
    Problem whole = MakeWholeProblem(num_atoms, clauses);

    ExactSolveResult ex = TrySolveExact(whole, kHardWeight, true);
    ASSERT_TRUE(ex.solved) << "program " << idx;

    McSatOptions mopts;
    mopts.num_samples = 600;
    mopts.burn_in = 60;
    mopts.hard_weight = kHardWeight;
    McSatResult mc = RunMcSat(whole, mopts, 1000 + idx);
    ASSERT_EQ(mc.marginals.size(), ex.marginals.size());
    for (size_t a = 0; a < num_atoms; ++a) {
      EXPECT_NEAR(mc.marginals[a], ex.marginals[a], 0.15)
          << "program " << idx << " atom " << a;
    }
    ++programs;
  }
  EXPECT_EQ(programs, 100u);
}

// ---------------------------------------------------------------------
// Engine and serving integration: the fast path is a pure speedup.

EvidenceDb ChainEvidence(const MlnProgram& program, int num_nodes) {
  EvidenceDb evidence;
  for (int i = 0; i + 1 < num_nodes; ++i) {
    evidence.Add(OracleAtom(program, "link",
                            {"n" + std::to_string(i),
                             "n" + std::to_string(i + 1)}),
                 true);
  }
  evidence.Add(OracleAtom(program, "label", {"n0", "A"}), true);
  return evidence;
}

TEST(ExactOracleTest, EngineLesionSameCostAndCountsExactComponents) {
  MlnProgram program = OracleLinkProgram(6);
  EvidenceDb evidence = ChainEvidence(program, 6);

  EngineOptions opts;
  opts.search_mode = SearchMode::kComponentAware;
  opts.total_flips = 60000;
  opts.seed = 7;

  Counter* ctr =
      MetricsRegistry::Global().GetCounter("search.exact.components");
  const uint64_t before = ctr->Value();

  opts.exact_fast_path = true;
  auto on = TuffyEngine(program, evidence, opts).Run();
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_GT(on.value().exact_components, 0u);
  EXPECT_GT(ctr->Value(), before);

  opts.exact_fast_path = false;
  auto off = TuffyEngine(program, evidence, opts).Run();
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  EXPECT_EQ(off.value().exact_components, 0u);

  EXPECT_NEAR(on.value().total_cost, off.value().total_cost, 1e-9);
}

TEST(ExactOracleTest, EngineMarginalTaskExactAgreesWithMcSat) {
  MlnProgram program = OracleLinkProgram(6);
  EvidenceDb evidence = ChainEvidence(program, 6);

  EngineOptions opts;
  opts.task = InferenceTask::kMarginal;
  opts.mcsat_samples = 500;
  opts.mcsat_burn_in = 50;
  opts.seed = 7;

  opts.exact_fast_path = true;
  auto on = TuffyEngine(program, evidence, opts).Run();
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_GT(on.value().exact_components, 0u);

  opts.exact_fast_path = false;
  auto off = TuffyEngine(program, evidence, opts).Run();
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  EXPECT_EQ(off.value().exact_components, 0u);

  ASSERT_EQ(on.value().marginals.size(), off.value().marginals.size());
  ASSERT_GT(on.value().marginals.size(), 0u);
  for (size_t a = 0; a < on.value().marginals.size(); ++a) {
    EXPECT_NEAR(on.value().marginals[a], off.value().marginals[a], 0.15)
        << "atom " << a;
  }
}

TEST(ExactOracleTest, SessionExactPathBitIdenticalAcrossThreads) {
  MlnProgram program = OracleLinkProgram(6);
  EvidenceDb evidence = ChainEvidence(program, 6);

  struct Run {
    std::vector<uint8_t> truth;
    std::vector<double> marginals;
    double cost = 0.0;
    size_t components_exact = 0;
  };
  auto run = [&](int threads) {
    SessionOptions sopts;
    sopts.total_flips = 60000;
    sopts.seed = 11;
    sopts.num_threads = threads;
    sopts.track_marginals = true;
    sopts.mcsat_samples = 100;
    sopts.mcsat_burn_in = 10;
    InferenceSession session(program, sopts);
    EXPECT_TRUE(session.Open(evidence).ok());
    // Splitting the chain keeps both halves tractable, so the delta's
    // dirty components also ride the exact path.
    EvidenceDelta delta;
    delta.Retract(OracleAtom(program, "link", {"n2", "n3"}));
    auto r = session.ApplyDelta(delta);
    EXPECT_TRUE(r.ok());
    return Run{session.truth(), session.marginals(), session.map_cost(),
               session.stats().components_exact};
  };

  Run base = run(1);
  EXPECT_GT(base.components_exact, 0u);
  for (int threads : {2, 4}) {
    Run other = run(threads);
    // Bit-identical, not just close: the exact solver is deterministic
    // and per-component seeds ignore scheduling order.
    EXPECT_EQ(base.truth, other.truth) << threads << " threads";
    EXPECT_EQ(base.marginals, other.marginals) << threads << " threads";
    EXPECT_DOUBLE_EQ(base.cost, other.cost) << threads << " threads";
    EXPECT_EQ(base.components_exact, other.components_exact);
  }
}

}  // namespace
}  // namespace tuffy
