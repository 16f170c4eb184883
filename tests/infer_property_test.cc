// Property sweeps for the inference stack against the brute-force
// oracles on randomized small MRFs.

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>

#include "infer/brute_force.h"
#include "infer/component_walksat.h"
#include "infer/disk_walksat.h"
#include "infer/gauss_seidel.h"
#include "infer/mcsat.h"
#include "infer/problem.h"
#include "mrf/components.h"
#include "mrf/partitioner.h"
#include "util/rng.h"

namespace tuffy {
namespace {

std::vector<GroundClause> RandomMrf(size_t num_atoms, int num_clauses,
                                    uint64_t seed, bool allow_negative) {
  Rng rng(seed);
  std::vector<GroundClause> clauses;
  for (int i = 0; i < num_clauses; ++i) {
    GroundClause c;
    int len = 1 + static_cast<int>(rng.Uniform(3));
    for (int l = 0; l < len; ++l) {
      AtomId a = static_cast<AtomId>(rng.Uniform(num_atoms));
      bool dup = false;
      for (Lit existing : c.lits) dup |= (LitAtom(existing) == a);
      if (!dup) c.lits.push_back(MakeLit(a, rng.Bernoulli(0.5)));
    }
    c.weight = (allow_negative && rng.Bernoulli(0.25))
                   ? -(0.3 + rng.NextDouble())
                   : (0.3 + rng.NextDouble());
    clauses.push_back(std::move(c));
  }
  return clauses;
}

class InferPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(InferPropertyTest, WalkSatNeverBeatsExactMap) {
  std::vector<GroundClause> clauses = RandomMrf(10, 20, GetParam(), true);
  Problem whole = MakeWholeProblem(10, clauses);
  auto exact = ExactMap(whole, 1e6);
  ASSERT_TRUE(exact.ok());
  WalkSatOptions opts;
  opts.max_flips = 100000;
  Rng rng(GetParam() * 3 + 1);
  WalkSatResult r = WalkSat(&whole, opts, &rng).Run();
  // Exact MAP is a lower bound; WalkSAT with a generous budget on 10
  // atoms should attain it.
  EXPECT_GE(r.best_cost, exact.value().cost - 1e-9);
  EXPECT_NEAR(r.best_cost, exact.value().cost, 1e-9);
}

TEST_P(InferPropertyTest, DiskSearchMatchesExactOnTinyMrf) {
  std::vector<GroundClause> clauses = RandomMrf(6, 10, GetParam() + 50, true);
  Problem whole = MakeWholeProblem(6, clauses);
  auto exact = ExactMap(whole, 1e6);
  ASSERT_TRUE(exact.ok());
  DiskWalkSatOptions opts;
  opts.max_flips = 2000;
  opts.io_latency_us = 0;
  auto ws = DiskWalkSat::Create(whole, opts);
  ASSERT_TRUE(ws.ok());
  Rng rng(GetParam() * 5 + 2);
  WalkSatResult r = ws.value()->Run(&rng);
  EXPECT_NEAR(r.best_cost, exact.value().cost, 1e-9);
}

TEST_P(InferPropertyTest, ComponentSearchMatchesExactPerComponent) {
  // Two disjoint random blobs: component search must reach the exact
  // optimum, which decomposes over components.
  std::vector<GroundClause> left = RandomMrf(6, 10, GetParam() + 100, true);
  std::vector<GroundClause> right = RandomMrf(6, 10, GetParam() + 200, true);
  std::vector<GroundClause> clauses = left;
  for (GroundClause c : right) {
    for (Lit& l : c.lits) {
      AtomId a = LitAtom(l) + 6;
      l = MakeLit(a, LitPositive(l));
    }
    clauses.push_back(std::move(c));
  }
  Problem whole = MakeWholeProblem(12, clauses);
  auto exact = ExactMap(whole, 1e6);
  ASSERT_TRUE(exact.ok());

  ComponentSet cs = DetectComponents(12, clauses);
  ComponentSearchOptions opts;
  opts.total_flips = 200000;
  ComponentSearchResult r =
      RunComponentWalkSat(12, clauses, cs, opts, GetParam() * 7 + 3);
  EXPECT_NEAR(r.cost, exact.value().cost, 1e-9);
}

TEST_P(InferPropertyTest, GaussSeidelNeverBeatsExactAndTraceMonotone) {
  std::vector<GroundClause> clauses = RandomMrf(12, 24, GetParam() + 300,
                                                false);
  Problem whole = MakeWholeProblem(12, clauses);
  auto exact = ExactMap(whole, 1e6);
  ASSERT_TRUE(exact.ok());
  PartitionResult pr = PartitionMrf(12, clauses, 24);
  GaussSeidelOptions opts;
  opts.sweeps = 5;
  opts.flips_per_partition = 5000;
  GaussSeidelResult r =
      RunGaussSeidel(12, clauses, pr, opts, GetParam() * 11 + 5);
  EXPECT_GE(r.cost, exact.value().cost - 1e-9);
  for (size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_LE(r.trace[i].cost, r.trace[i - 1].cost);
  }
  EXPECT_NEAR(whole.EvalCost(r.truth, opts.hard_weight), r.cost, 1e-9);
}

TEST_P(InferPropertyTest, McSatTracksExactMarginals) {
  // Positive-weight random MRFs on 6 atoms: MC-SAT estimates must be
  // within a loose tolerance of exact enumeration.
  std::vector<GroundClause> clauses =
      RandomMrf(6, 8, GetParam() + 400, false);
  Problem whole = MakeWholeProblem(6, clauses);
  auto exact = ExactMarginals(whole);
  ASSERT_TRUE(exact.ok());
  McSatOptions opts;
  opts.num_samples = 2500;
  opts.burn_in = 100;
  McSatResult r = RunMcSat(whole, opts, GetParam() * 13 + 7);
  double max_err = 0;
  for (size_t a = 0; a < 6; ++a) {
    max_err = std::max(max_err, std::fabs(r.marginals[a] - exact.value()[a]));
  }
  // SampleSAT's near-uniformity bounds the achievable accuracy; 0.12 is
  // a robust envelope across seeds.
  EXPECT_LT(max_err, 0.12) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, InferPropertyTest, ::testing::Range(1, 9));

// ------------------------------------------ component-local atom ids

/// Reference sub-problem builders that number atoms through a
/// global-to-local map per call; the builders that read position arrays
/// must reproduce them.
SubProblem ReferenceSubProblem(const std::vector<GroundClause>& all,
                               const std::vector<uint32_t>& clause_ids,
                               const std::vector<AtomId>& atom_ids,
                               std::unordered_map<AtomId, AtomId>* local) {
  SubProblem sub;
  sub.global_atom = atom_ids;
  sub.problem.num_atoms = atom_ids.size();
  for (size_t i = 0; i < atom_ids.size(); ++i) {
    (*local)[atom_ids[i]] = static_cast<AtomId>(i);
  }
  for (uint32_t ci : clause_ids) {
    std::vector<Lit> lits;
    for (Lit l : all[ci].lits) {
      lits.push_back(MakeLit(local->at(LitAtom(l)), LitPositive(l)));
    }
    sub.problem.AddClause(lits.data(), lits.size(), all[ci].weight,
                          all[ci].hard);
  }
  return sub;
}

SubProblem ReferenceConditioned(const std::vector<GroundClause>& all,
                                const PartitionResult& parts, int32_t p,
                                const std::vector<uint8_t>& truth) {
  std::unordered_map<AtomId, AtomId> local;
  SubProblem sub =
      ReferenceSubProblem(all, parts.clauses[p], parts.atoms[p], &local);
  for (uint32_t ci : parts.cut_clauses) {
    bool touches = false;
    for (Lit l : all[ci].lits) {
      touches |= parts.partition_of_atom[LitAtom(l)] == p;
    }
    if (!touches) continue;
    std::vector<Lit> lits;
    bool satisfied = false;
    for (Lit l : all[ci].lits) {
      const AtomId g = LitAtom(l);
      if (parts.partition_of_atom[g] == p) {
        lits.push_back(MakeLit(local.at(g), LitPositive(l)));
      } else if ((truth[g] != 0) == LitPositive(l)) {
        satisfied = true;
        break;
      }
    }
    if (satisfied || lits.empty()) continue;
    sub.problem.AddClause(lits.data(), lits.size(), all[ci].weight,
                          all[ci].hard);
  }
  return sub;
}

void ExpectSameSubProblem(const SubProblem& a, const SubProblem& b) {
  EXPECT_EQ(a.global_atom, b.global_atom);
  EXPECT_EQ(a.problem.num_atoms, b.problem.num_atoms);
  EXPECT_EQ(a.problem.clause_offsets, b.problem.clause_offsets);
  EXPECT_EQ(a.problem.lit_data, b.problem.lit_data);
  EXPECT_EQ(a.problem.weight, b.problem.weight);
  EXPECT_EQ(a.problem.abs_weight, b.problem.abs_weight);
  EXPECT_EQ(a.problem.hard, b.problem.hard);
  EXPECT_EQ(a.problem.positive, b.problem.positive);
  EXPECT_EQ(a.problem.frozen, b.problem.frozen);
}

TEST(SubProblemPositionsTest, PositionsAreTheLocalIdsAMapWouldGive) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const size_t num_atoms = 1 + rng.Uniform(40);
    std::vector<GroundClause> clauses =
        RandomMrf(num_atoms, static_cast<int>(rng.Uniform(60)), seed, true);
    // Repeated and complementary literals exercise AddClause's
    // normalization; hard clauses its flags.
    if (!clauses.empty() && num_atoms > 1) {
      clauses[0].lits = {MakeLit(0, true), MakeLit(0, true),
                         MakeLit(1, false), MakeLit(1, true)};
      clauses.back().hard = true;
    }

    ComponentSet cs = DetectComponents(num_atoms, clauses);
    ASSERT_EQ(cs.position_of_atom.size(), num_atoms);
    for (AtomId a = 0; a < num_atoms; ++a) {
      ASSERT_EQ(cs.atoms[cs.component_of_atom[a]][cs.position_of_atom[a]], a);
    }
    for (size_t c = 0; c < cs.num_components(); ++c) {
      std::unordered_map<AtomId, AtomId> local;
      ExpectSameSubProblem(
          BuildSubProblem(clauses, cs.clauses[c], cs.atoms[c],
                          cs.position_of_atom),
          ReferenceSubProblem(clauses, cs.clauses[c], cs.atoms[c], &local));
    }

    // A small beta cuts clauses between partitions.
    const PartitionResult parts =
        PartitionMrf(num_atoms, clauses, 2 + rng.Uniform(12));
    ASSERT_EQ(parts.position_of_atom.size(), num_atoms);
    for (AtomId a = 0; a < num_atoms; ++a) {
      ASSERT_EQ(
          parts.atoms[parts.partition_of_atom[a]][parts.position_of_atom[a]],
          a);
    }
    std::vector<uint8_t> truth(num_atoms);
    for (uint8_t& t : truth) t = rng.Bernoulli(0.5) ? 1 : 0;
    for (size_t p = 0; p < parts.num_partitions(); ++p) {
      const int32_t part = static_cast<int32_t>(p);
      ExpectSameSubProblem(
          BuildConditionedSubProblem(clauses, parts.clauses[p],
                                     parts.cut_clauses, parts.atoms[p],
                                     parts.partition_of_atom,
                                     parts.position_of_atom, part, truth),
          ReferenceConditioned(clauses, parts, part, truth));
    }
  }
}

}  // namespace
}  // namespace tuffy
