#include <gtest/gtest.h>

#include <string>
#include <vector>

#include <algorithm>
#include <bit>
#include <cstring>
#include <iomanip>
#include <map>
#include <tuple>

#include "datagen/datasets.h"
#include "durability/serialize.h"
#include "exec/tuffy_engine.h"
#include "infer/exact/exact_solver.h"
#include "mln/parser.h"
#include "oracle_support.h"
#include "serve/delta_grounder.h"
#include "serve/inference_session.h"
#include "serve/session_manager.h"
#include "util/rng.h"

namespace tuffy {
namespace {

/// Parses `text` and interns the classes A and B and the nodes n0 ..
/// n<nodes - 1>.
MlnProgram NodeProgram(const std::string& text, int nodes) {
  auto r = ParseProgram(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  MlnProgram program = r.TakeValue();
  program.symbols().Intern("A", "cls");
  program.symbols().Intern("B", "cls");
  for (int i = 0; i < nodes; ++i) {
    program.symbols().Intern("n" + std::to_string(i), "node");
  }
  return program;
}

// A link-propagation program whose MRF components are controlled
// entirely by `link` evidence: ground clauses exist only where links do,
// so retracting a link can kill a component's last clause and adding one
// can merge two components.
MlnProgram LinkProgram() {
  return NodeProgram(
      "*link(node, node)\n"
      "label(node, cls)\n"
      "2 link(x, y), label(x, c) => label(y, c)\n",
      6);
}

GroundAtom Atom(const MlnProgram& program, const std::string& pred,
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

/// MAP cost of a from-scratch engine run over `evidence`, with the same
/// closure-free grounding semantics sessions use.
double FreshCost(const MlnProgram& program, const EvidenceDb& evidence) {
  EngineOptions opts;
  opts.grounding.lazy_closure = false;
  opts.search_mode = SearchMode::kComponentAware;
  opts.total_flips = 60000;
  opts.seed = 7;
  TuffyEngine engine(program, evidence, opts);
  auto r = engine.Run();
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.value().total_cost;
}

SessionOptions TestSessionOptions() {
  SessionOptions opts;
  opts.total_flips = 60000;
  opts.seed = 11;
  return opts;
}

TEST(ServeTest, OpenMatchesFreshInfer) {
  RcParams p;
  p.num_clusters = 4;
  p.papers_per_cluster = 5;
  p.num_categories = 4;
  auto ds = MakeRcDataset(p);
  ASSERT_TRUE(ds.ok());

  InferenceSession session(ds.value().program, TestSessionOptions());
  ASSERT_TRUE(session.Open(ds.value().evidence).ok());
  EXPECT_GT(session.atoms().num_atoms(), 0u);
  EXPECT_GT(session.num_components(), 0u);
  EXPECT_NEAR(session.map_cost(), session.EvalCurrentCost(), 1e-9);
  EXPECT_NEAR(session.map_cost(),
              FreshCost(ds.value().program, ds.value().evidence), 1e-6);
}

TEST(ServeTest, EmptyDeltaReturnsCachedWithoutTouchingAnything) {
  MlnProgram program = LinkProgram();
  EvidenceDb evidence;
  evidence.Add(Atom(program, "link", {"n0", "n1"}), true);
  evidence.Add(Atom(program, "label", {"n0", "A"}), true);

  InferenceSession session(program, TestSessionOptions());
  ASSERT_TRUE(session.Open(evidence).ok());
  double cost_before = session.EvalCurrentCost();
  const size_t rebuilds_before = session.stats().arena_rebuilds;
  const std::vector<uint8_t> truth_before = session.truth();

  // A literally empty delta.
  auto r1 = session.ApplyDelta(EvidenceDelta{});
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1.value().edits.no_op);
  EXPECT_EQ(r1.value().components_dirty, 0u);
  EXPECT_EQ(r1.value().flips, 0u);

  // A semantically empty one: re-asserting existing evidence, retracting
  // an absent atom, asserting false on an absent closed-world atom.
  EvidenceDelta redundant;
  redundant.Assert(Atom(program, "link", {"n0", "n1"}), true);
  redundant.Retract(Atom(program, "link", {"n1", "n0"}));
  redundant.Assert(Atom(program, "link", {"n1", "n1"}), false);
  auto r2 = session.ApplyDelta(redundant);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.value().edits.no_op);
  EXPECT_EQ(r2.value().edits.rules_reground, 0u);
  EXPECT_EQ(r2.value().map_cost, cost_before);

  EXPECT_EQ(session.stats().arena_rebuilds, rebuilds_before);
  EXPECT_EQ(session.truth(), truth_before);
  EXPECT_EQ(session.stats().no_op_deltas, 2u);
}

TEST(ServeTest, RetractionKillsComponentsLastClause) {
  MlnProgram program = LinkProgram();
  EvidenceDb evidence;
  // Two independent linked pairs plus one label each.
  evidence.Add(Atom(program, "link", {"n0", "n1"}), true);
  evidence.Add(Atom(program, "link", {"n2", "n3"}), true);
  evidence.Add(Atom(program, "label", {"n0", "A"}), true);
  evidence.Add(Atom(program, "label", {"n2", "A"}), true);

  InferenceSession session(program, TestSessionOptions());
  ASSERT_TRUE(session.Open(evidence).ok());
  const size_t clauses_before = session.clauses().size();
  ASSERT_GT(clauses_before, 0u);

  // Retract the n2-n3 link: every ground clause of that pair dies.
  EvidenceDelta delta;
  delta.Retract(Atom(program, "link", {"n2", "n3"}));
  auto r = session.ApplyDelta(delta);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().edits.clauses_removed, 0u);
  EXPECT_LT(session.clauses().size(), clauses_before);

  evidence.Remove(Atom(program, "link", {"n2", "n3"}));
  EXPECT_NEAR(session.map_cost(), session.EvalCurrentCost(), 1e-9);
  EXPECT_NEAR(session.map_cost(), FreshCost(program, evidence), 1e-6);

  // Retract the remaining link too: the whole MRF empties out.
  EvidenceDelta delta2;
  delta2.Retract(Atom(program, "link", {"n0", "n1"}));
  auto r2 = session.ApplyDelta(delta2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(session.clauses().size(), 0u);
  EXPECT_NEAR(session.map_cost(), 0.0, 1e-9);
}

TEST(ServeTest, DeltaMergesTwoComponents) {
  MlnProgram program = LinkProgram();
  EvidenceDb evidence;
  evidence.Add(Atom(program, "link", {"n0", "n1"}), true);
  evidence.Add(Atom(program, "link", {"n2", "n3"}), true);
  evidence.Add(Atom(program, "label", {"n0", "A"}), true);
  evidence.Add(Atom(program, "label", {"n2", "B"}), true);

  InferenceSession session(program, TestSessionOptions());
  ASSERT_TRUE(session.Open(evidence).ok());

  // Bridge the two pairs: their components must merge and be re-searched
  // as one.
  EvidenceDelta bridge;
  bridge.Assert(Atom(program, "link", {"n1", "n2"}), true);
  auto r = session.ApplyDelta(bridge);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().edits.clauses_added, 0u);
  EXPECT_GE(r.value().components_dirty, 1u);

  evidence.Add(Atom(program, "link", {"n1", "n2"}), true);
  EXPECT_NEAR(session.map_cost(), session.EvalCurrentCost(), 1e-9);
  EXPECT_NEAR(session.map_cost(), FreshCost(program, evidence), 1e-6);

  // The merged component spans atoms of both old pairs: label(n1, ...)
  // and label(n3, ...) now influence each other through n1-n2. Verify via
  // a second delta on one side re-searching a component containing the
  // other side's atoms.
  EXPECT_LE(r.value().components_dirty, r.value().components_total);
}

TEST(ServeTest, DeltaSequenceMatchesFreshInferEachStep) {
  RcParams p;
  p.num_clusters = 3;
  p.papers_per_cluster = 4;
  p.num_categories = 3;
  p.labeled_fraction = 0.6;
  auto ds = MakeRcDataset(p);
  ASSERT_TRUE(ds.ok());
  MlnProgram& program = ds.value().program;
  EvidenceDb evidence = ds.value().evidence;

  InferenceSession session(program, TestSessionOptions());
  ASSERT_TRUE(session.Open(evidence).ok());

  // Find an existing cat label to retract and papers to relabel.
  auto cat_pid = program.FindPredicate("cat");
  ASSERT_TRUE(cat_pid.ok());
  GroundAtom existing_label;
  for (const auto& [atom, truth] : evidence.entries()) {
    if (atom.pred == cat_pid.value() && truth) {
      existing_label = atom;
      break;
    }
  }
  ASSERT_NE(existing_label.pred, kInvalidPredicate);

  std::vector<EvidenceDelta> deltas(4);
  // 1: retract a label (its atom becomes unknown and joins the MRF).
  deltas[0].Retract(existing_label);
  // 2: assert a fresh label on a previously unlabeled paper.
  deltas[1].Assert(Atom(program, "cat", {"P0", "Networking"}), true);
  // 3: relabel it (overwrite-style delta: retract + assert).
  deltas[2].Retract(Atom(program, "cat", {"P0", "Networking"}));
  deltas[2].Assert(Atom(program, "cat", {"P1", "Networking"}), true);
  // 4: add a cross-cluster citation (merges two cluster components).
  deltas[3].Assert(Atom(program, "refers", {"P0", "P9"}), true);

  for (size_t i = 0; i < deltas.size(); ++i) {
    auto r = session.ApplyDelta(deltas[i]);
    ASSERT_TRUE(r.ok()) << "delta " << i;
    for (const auto& [atom, truth] : deltas[i].assertions) {
      evidence.Add(atom, truth);
    }
    for (const GroundAtom& atom : deltas[i].retractions) {
      evidence.Remove(atom);
    }
    EXPECT_NEAR(session.map_cost(), session.EvalCurrentCost(), 1e-9)
        << "bookkeeping drift after delta " << i;
    EXPECT_NEAR(session.map_cost(), FreshCost(program, evidence), 1e-6)
        << "equivalence broken after delta " << i;
    EXPECT_LE(r.value().components_dirty, r.value().components_total);
  }
  EXPECT_EQ(session.stats().deltas_applied, deltas.size());
}

/// Canonical, atom-id-independent form of a resident clause store: every
/// literal spelled out as (sign, pred, args), clauses sorted, each with
/// its weight's bits, hard flag and per-rule grounding counts (by rule
/// id). Two grounders that numbered session atoms differently still
/// compare equal iff their clause sets, weights (bit for bit) and
/// provenance are identical.
using CanonLit = std::pair<bool, std::pair<PredicateId, std::vector<ConstantId>>>;
using CanonClause = std::vector<CanonLit>;
using CanonCounts = std::vector<std::pair<int32_t, uint32_t>>;
std::map<CanonClause, std::tuple<uint64_t, bool, CanonCounts>> Canonicalize(
    const DeltaGrounder& dg) {
  std::map<CanonClause, std::tuple<uint64_t, bool, CanonCounts>> out;
  const GroundClauseStore& store = dg.store();
  for (size_t i = 0; i < store.num_clauses(); ++i) {
    const GroundClause& c = store.clauses()[i];
    CanonClause cc;
    for (Lit l : c.lits) {
      const GroundAtom& atom = dg.atoms().atom(LitAtom(l));
      cc.emplace_back(LitPositive(l),
                      std::make_pair(atom.pred, atom.args));
    }
    std::sort(cc.begin(), cc.end());
    CanonCounts counts;
    store.ForEachContribution(i, [&](int32_t rule, uint32_t count) {
      counts.emplace_back(rule, count);
    });
    std::sort(counts.begin(), counts.end());
    EXPECT_FALSE(counts.empty()) << "clause " << i << " has no provenance";
    out[cc] = {std::bit_cast<uint64_t>(c.weight), c.hard, counts};
  }
  EXPECT_EQ(out.size(), store.num_clauses()) << "a literal set is stored twice";
  return out;
}

/// Applies `deltas` in turn to a grounder initialized over `evidence`.
/// After each one the served grounder must equal a fresh Initialize over
/// the accumulated evidence: the same clauses with the same weights (bit
/// for bit), hard flags and per-rule counts, the same fixed cost and the
/// same contradiction flag.
void ExpectEveryDeltaMatchesFreshInitialize(
    const MlnProgram& program, const EvidenceDb& evidence,
    const std::vector<EvidenceDelta>& deltas) {
  DeltaGrounder served(program, GroundingOptions{}, OptimizerOptions{});
  ASSERT_TRUE(served.Initialize(evidence).ok());
  EvidenceDb accumulated = evidence;
  for (size_t i = 0; i < deltas.size(); ++i) {
    auto r = served.ApplyDelta(deltas[i]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(r.value().rules_reground, 0u) << "delta " << i;
    for (const GroundAtom& atom : deltas[i].retractions) {
      accumulated.Remove(atom);
    }
    for (const auto& [atom, truth] : deltas[i].assertions) {
      accumulated.Add(atom, truth);
    }

    DeltaGrounder fresh(program, GroundingOptions{}, OptimizerOptions{});
    ASSERT_TRUE(fresh.Initialize(accumulated).ok());
    EXPECT_EQ(Canonicalize(served), Canonicalize(fresh)) << "delta " << i;
    EXPECT_EQ(served.fixed_cost(), fresh.fixed_cost()) << "delta " << i;
    EXPECT_EQ(served.hard_contradiction(), fresh.hard_contradiction())
        << "delta " << i;
  }
}

/// Three rules that ground to the same literal sets, each over its own
/// closed-world relation, at weights 0.1, 0.2 and 0.3: a clause's weight
/// sums differently by rule arrival order (0.2 + 0.3 + 0.1 is
/// 0.59999999999999998, 0.1 + 0.2 + 0.3 is 0.60000000000000009).
MlnProgram ThreeRelationProgram() {
  return NodeProgram(
      "*link(node, node)\n"
      "*friend(node, node)\n"
      "*peer(node, node)\n"
      "label(node, cls)\n"
      "0.1 link(x, y), label(x, c) => label(y, c)\n"
      "0.2 friend(x, y), label(x, c) => label(y, c)\n"
      "0.3 peer(x, y), label(x, c) => label(y, c)\n",
      4);
}

TEST(ServeTest, ServedGrounderMatchesFreshInitializeAfterEveryDelta) {
  {
    // Open-world relabels and closed-world (binding-literal) link
    // assertion + retraction. The rule weight is deliberately not
    // exactly representable as a repeated sum (0.1): contribution
    // weights must derive as weight x count.
    SCOPED_TRACE("link chain");
    MlnProgram program = LinkProgram();
    program.SetClauseWeight(0, 0.1);
    EvidenceDb evidence;
    for (int i = 0; i + 1 < 6; ++i) {
      evidence.Add(
          Atom(program, "link",
               {"n" + std::to_string(i), "n" + std::to_string(i + 1)}),
          true);
    }
    evidence.Add(Atom(program, "label", {"n0", "A"}), true);
    std::vector<EvidenceDelta> deltas(3);
    // Retract a link mid-chain (kills clauses).
    deltas[0].Retract(Atom(program, "link", {"n2", "n3"}));
    // Add a new link (new bindings) + relabel.
    deltas[1].Assert(Atom(program, "link", {"n0", "n4"}), true);
    deltas[1].Assert(Atom(program, "label", {"n1", "B"}), true);
    // Flip a label to false, restore the link.
    deltas[2].Assert(Atom(program, "label", {"n0", "A"}), false);
    deltas[2].Assert(Atom(program, "link", {"n2", "n3"}), true);
    ExpectEveryDeltaMatchesFreshInitialize(program, evidence, deltas);
  }
  {
    // 1,100 link assertions in one delta, then 1,050 retractions with
    // relabels: more than 1,024 changed atoms each. Three rules merge
    // clauses, so weights sum over rules that arrive in varying order.
    SCOPED_TRACE("delta of more than 1024 atoms");
    constexpr int kNodes = 40;
    MlnProgram program = NodeProgram(
        "*link(node, node)\n"
        "*friend(node, node)\n"
        "label(node, cls)\n"
        "0.1 link(x, y), label(x, c) => label(y, c)\n"
        "0.2 friend(x, y), label(x, c) => label(y, c)\n"
        "0.3 link(y, x), label(x, c) => label(y, c)\n",
        kNodes);
    const auto node = [](int i) { return "n" + std::to_string(i); };
    EvidenceDb evidence;
    for (int i = 0; i < kNodes; ++i) {
      evidence.Add(
          Atom(program, "friend", {node(i), node((i * 7 + 3) % kNodes)}),
          true);
      if (i % 5 == 0) {
        evidence.Add(Atom(program, "label", {node(i), "A"}), true);
      }
      if (i % 7 == 0) {
        evidence.Add(Atom(program, "label", {node(i), "B"}), false);
      }
    }
    std::vector<GroundAtom> links;
    for (int i = 0; i < kNodes && links.size() < 1100; ++i) {
      for (int j = 0; j < kNodes && links.size() < 1100; ++j) {
        if ((i + j) % 4 != 0) {
          links.push_back(Atom(program, "link", {node(i), node(j)}));
        }
      }
    }
    ASSERT_EQ(links.size(), 1100u);
    std::vector<EvidenceDelta> deltas(2);
    for (const GroundAtom& atom : links) deltas[0].Assert(atom, true);
    for (size_t k = 0; k < 1050; ++k) deltas[1].Retract(links[k]);
    for (int i = 1; i < kNodes; i += 4) {
      deltas[1].Assert(Atom(program, "label", {node(i), "B"}), true);
    }
    ExpectEveryDeltaMatchesFreshInitialize(program, evidence, deltas);
  }
  {
    // Rules with no universal variable — soft, negative-weight, hard and
    // existential — have one binding, the empty one. Their clauses,
    // fixed costs and hard violations follow the delta like any other
    // rule's.
    SCOPED_TRACE("rules without universal variables");
    MlnProgram program = NodeProgram(
        "*link(node, node)\n"
        "label(node, cls)\n"
        "2 link(x, y), label(x, c) => label(y, c)\n"
        "0.7 !link(\"n0\", \"n1\") v label(\"n1\", A)\n"
        "0.4 EXIST y link(\"n2\", y)\n"
        "-0.3 label(\"n3\", B)\n"
        "!link(\"n4\", \"n5\").\n",
        6);
    EvidenceDb evidence;
    evidence.Add(Atom(program, "link", {"n1", "n2"}), true);
    evidence.Add(Atom(program, "label", {"n1", "A"}), true);
    std::vector<EvidenceDelta> deltas(4);
    deltas[0].Assert(Atom(program, "link", {"n0", "n1"}), true);
    deltas[0].Assert(Atom(program, "link", {"n2", "n3"}), true);
    deltas[0].Assert(Atom(program, "label", {"n3", "B"}), true);
    deltas[1].Assert(Atom(program, "link", {"n4", "n5"}), true);
    deltas[1].Retract(Atom(program, "label", {"n1", "A"}));
    deltas[2].Retract(Atom(program, "link", {"n2", "n3"}));
    deltas[2].Assert(Atom(program, "label", {"n3", "B"}), false);
    deltas[3].Retract(Atom(program, "link", {"n4", "n5"}));
    deltas[3].Retract(Atom(program, "link", {"n0", "n1"}));
    ExpectEveryDeltaMatchesFreshInitialize(program, evidence, deltas);
  }
  {
    // Many groundings per rule whose cost the evidence fixes, at weights
    // that do not sum exactly: each rule's fixed cost must derive as
    // |weight| x count, however the deltas moved the count.
    SCOPED_TRACE("fixed costs of many groundings");
    MlnProgram program = NodeProgram(
        "*link(node, node)\n"
        "label(node, cls)\n"
        "2 link(x, y), label(x, c) => label(y, c)\n"
        "0.7 !link(x, y) v label(y, A)\n"
        "0.4 EXIST y link(x, y)\n"
        "-0.3 label(x, B)\n"
        "!link(x, x).\n",
        6);
    EvidenceDb evidence;
    evidence.Add(Atom(program, "link", {"n1", "n2"}), true);
    evidence.Add(Atom(program, "label", {"n1", "A"}), true);
    std::vector<EvidenceDelta> deltas(3);
    deltas[0].Assert(Atom(program, "link", {"n0", "n1"}), true);
    deltas[0].Assert(Atom(program, "link", {"n2", "n3"}), true);
    deltas[0].Assert(Atom(program, "label", {"n3", "B"}), true);
    deltas[1].Assert(Atom(program, "link", {"n4", "n5"}), true);
    deltas[1].Retract(Atom(program, "label", {"n1", "A"}));
    deltas[2].Retract(Atom(program, "link", {"n2", "n3"}));
    deltas[2].Assert(Atom(program, "label", {"n3", "B"}), false);
    ExpectEveryDeltaMatchesFreshInitialize(program, evidence, deltas);
  }
  {
    SCOPED_TRACE("three relations, one clause");
    MlnProgram program = ThreeRelationProgram();
    EvidenceDb evidence;
    evidence.Add(Atom(program, "friend", {"n0", "n1"}), true);
    evidence.Add(Atom(program, "peer", {"n0", "n1"}), true);
    std::vector<EvidenceDelta> deltas(3);
    deltas[0].Assert(Atom(program, "link", {"n0", "n1"}), true);
    deltas[1].Retract(Atom(program, "friend", {"n0", "n1"}));
    deltas[1].Assert(Atom(program, "peer", {"n2", "n3"}), true);
    deltas[2].Assert(Atom(program, "friend", {"n0", "n1"}), true);
    deltas[2].Assert(Atom(program, "link", {"n2", "n3"}), true);
    ExpectEveryDeltaMatchesFreshInitialize(program, evidence, deltas);
  }
}

TEST(ServeTest, MergedClauseWeightDoesNotDependOnRuleArrivalOrder) {
  // friend and peer ground !label(n0, c) v label(n1, c) first; the link
  // delta then adds rule 0's 0.1. The served weight must be the one a
  // fresh grounding derives (0.1 + 0.2 + 0.3, in rule order), not the
  // running sum 0.5 + 0.1.
  MlnProgram program = ThreeRelationProgram();
  EvidenceDb evidence;
  evidence.Add(Atom(program, "friend", {"n0", "n1"}), true);
  evidence.Add(Atom(program, "peer", {"n0", "n1"}), true);
  DeltaGrounder served(program, GroundingOptions{}, OptimizerOptions{});
  ASSERT_TRUE(served.Initialize(evidence).ok());
  EvidenceDelta delta;
  delta.Assert(Atom(program, "link", {"n0", "n1"}), true);
  ASSERT_TRUE(served.ApplyDelta(delta).ok());
  evidence.Add(Atom(program, "link", {"n0", "n1"}), true);
  DeltaGrounder fresh(program, GroundingOptions{}, OptimizerOptions{});
  ASSERT_TRUE(fresh.Initialize(evidence).ok());

  ASSERT_EQ(served.clauses().size(), 2u);  // one per class
  ASSERT_EQ(fresh.clauses().size(), 2u);
  const double expected = (0.0 + 0.1 + 0.2) + 0.3;
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(fresh.clauses()[i].weight),
              std::bit_cast<uint64_t>(expected));
    EXPECT_EQ(std::bit_cast<uint64_t>(served.clauses()[i].weight),
              std::bit_cast<uint64_t>(expected))
        << std::setprecision(17) << "served " << served.clauses()[i].weight
        << ", fresh " << expected;
  }
}

TEST(ServeTest, SameAtomAssertAndRetractNetsToAssertion) {
  MlnProgram program = LinkProgram();
  EvidenceDb evidence;
  evidence.Add(Atom(program, "link", {"n0", "n1"}), true);
  evidence.Add(Atom(program, "label", {"n0", "A"}), true);

  InferenceSession session(program, TestSessionOptions());
  ASSERT_TRUE(session.Open(evidence).ok());

  // Retract + re-assert the same label in one batch: a delta is a set,
  // the assertion wins, and since it matches the existing evidence the
  // whole batch is a semantic no-op.
  EvidenceDelta both;
  both.Retract(Atom(program, "label", {"n0", "A"}));
  both.Assert(Atom(program, "label", {"n0", "A"}), true);
  auto r = session.ApplyDelta(both);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().edits.no_op);
  EXPECT_EQ(session.evidence().Explicit(Atom(program, "label", {"n0", "A"})),
            Truth::kTrue);

  // Assert + retract an atom absent from the evidence: the assertion
  // still wins (set semantics, not command order).
  EvidenceDelta add_both;
  add_both.Assert(Atom(program, "label", {"n1", "B"}), true);
  add_both.Retract(Atom(program, "label", {"n1", "B"}));
  auto r2 = session.ApplyDelta(add_both);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.value().edits.no_op);
  EXPECT_EQ(session.evidence().Explicit(Atom(program, "label", {"n1", "B"})),
            Truth::kTrue);
}

TEST(ServeTest, DeltaWithConstantOutsideItsDomainIsRefused) {
  // Sessions serve the universe they were opened with. A constant id past
  // the symbol table, a negative id, and an in-table constant of the
  // wrong type (a node in label's class slot) are each refused before
  // anything changes, in an assertion and in a retraction alike, and a
  // valid delta still applies afterwards.
  MlnProgram program = LinkProgram();
  EvidenceDb evidence;
  evidence.Add(Atom(program, "link", {"n0", "n1"}), true);
  evidence.Add(Atom(program, "label", {"n0", "A"}), true);
  InferenceSession session(program, TestSessionOptions());
  ASSERT_TRUE(session.Open(evidence).ok());
  const size_t atoms_before = session.atoms().num_atoms();
  const double cost_before = session.map_cost();
  const size_t applied_before = session.stats().deltas_applied;

  GroundAtom past_table = Atom(program, "label", {"n1", "A"});
  past_table.args[1] =
      static_cast<ConstantId>(program.symbols().num_constants() + 100000);
  GroundAtom negative = Atom(program, "label", {"n1", "A"});
  negative.args[0] = -1;
  GroundAtom wrong_type = Atom(program, "label", {"n1", "n2"});
  for (const GroundAtom& bad : {past_table, negative, wrong_type}) {
    EvidenceDelta assertion;
    assertion.Assert(bad, true);
    auto r = session.ApplyDelta(assertion);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
    EvidenceDelta retraction;
    retraction.Retract(bad);
    auto r2 = session.ApplyDelta(retraction);
    ASSERT_FALSE(r2.ok());
    EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument)
        << r2.status().ToString();
  }
  EXPECT_EQ(session.atoms().num_atoms(), atoms_before);
  EXPECT_EQ(session.map_cost(), cost_before);
  EXPECT_EQ(session.stats().deltas_applied, applied_before);

  EvidenceDelta valid;
  valid.Assert(Atom(program, "label", {"n1", "B"}), true);
  auto ok = session.ApplyDelta(valid);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_FALSE(ok.value().edits.no_op);
  EXPECT_EQ(session.stats().deltas_applied, applied_before + 1);
}

TEST(ServeTest, MarginalsTrackFreshMcSat) {
  MlnProgram program = LinkProgram();
  EvidenceDb evidence;
  evidence.Add(Atom(program, "link", {"n0", "n1"}), true);
  evidence.Add(Atom(program, "label", {"n0", "A"}), true);

  SessionOptions opts = TestSessionOptions();
  opts.track_marginals = true;
  opts.mcsat_samples = 1500;
  opts.mcsat_burn_in = 100;
  InferenceSession session(program, opts);
  ASSERT_TRUE(session.Open(evidence).ok());

  EvidenceDelta delta;
  delta.Assert(Atom(program, "link", {"n1", "n2"}), true);
  ASSERT_TRUE(session.ApplyDelta(delta).ok());
  evidence.Add(Atom(program, "link", {"n1", "n2"}), true);

  EngineOptions eopts;
  eopts.grounding.lazy_closure = false;
  eopts.task = InferenceTask::kMarginal;
  eopts.mcsat_samples = 1500;
  eopts.mcsat_burn_in = 100;
  eopts.seed = 123;
  TuffyEngine engine(program, evidence, eopts);
  auto fresh = engine.Run();
  ASSERT_TRUE(fresh.ok());

  // Compare marginals atom by atom (matched by ground atom identity; the
  // two sides number atoms differently).
  size_t compared = 0;
  const AtomStore& fresh_atoms = fresh.value().grounding.atoms;
  for (AtomId a = 0; a < session.atoms().num_atoms(); ++a) {
    AtomId fid;
    if (!fresh_atoms.Find(session.atoms().atom(a), &fid)) continue;
    EXPECT_NEAR(session.marginals()[a], fresh.value().marginals[fid], 0.07)
        << "atom " << a;
    ++compared;
  }
  EXPECT_GT(compared, 0u);
}

// Sampler-vs-oracle under serving deltas: after every delta, each
// tractable component's served marginals must equal a fresh exact solve
// over the live clause set — whether the component was just re-searched
// (dirty) or kept verbatim from an earlier epoch (clean). Clause-less
// singletons are skipped: the session reports their evidence-determined
// truth, which a fresh solve of an empty subproblem cannot see.
TEST(ServeTest, ServedMarginalsMatchFreshExactSolveAfterEveryDelta) {
  MlnProgram program = LinkProgram();
  EvidenceDb evidence;
  evidence.Add(Atom(program, "link", {"n0", "n1"}), true);
  evidence.Add(Atom(program, "link", {"n1", "n2"}), true);
  evidence.Add(Atom(program, "link", {"n3", "n4"}), true);
  evidence.Add(Atom(program, "label", {"n0", "A"}), true);
  evidence.Add(Atom(program, "label", {"n3", "B"}), true);

  SessionOptions opts = TestSessionOptions();
  opts.track_marginals = true;
  opts.mcsat_samples = 100;
  opts.mcsat_burn_in = 10;
  InferenceSession session(program, opts);
  ASSERT_TRUE(session.Open(evidence).ok());

  auto check = [&](const std::string& label) {
    std::vector<SubProblem> subs =
        SplitComponents(session.atoms().num_atoms(), session.clauses());
    size_t exact_comps = 0;
    for (const SubProblem& sub : subs) {
      if (sub.problem.num_clauses() == 0) continue;
      ExactSolveResult ex =
          TrySolveExact(sub.problem, opts.hard_weight, /*want_marginals=*/true);
      if (!ex.solved) continue;  // intractable: served by MC-SAT
      ++exact_comps;
      for (size_t j = 0; j < sub.global_atom.size(); ++j) {
        EXPECT_DOUBLE_EQ(session.marginals()[sub.global_atom[j]],
                         ex.marginals[j])
            << label << " atom " << sub.global_atom[j];
      }
    }
    EXPECT_GT(exact_comps, 0u) << label;
  };
  check("cold start");

  std::vector<EvidenceDelta> deltas(4);
  deltas[0].Assert(Atom(program, "link", {"n2", "n3"}), true);  // merge
  deltas[1].Retract(Atom(program, "link", {"n1", "n2"}));       // split
  deltas[2].Assert(Atom(program, "label", {"n4", "A"}), true);
  deltas[3].Retract(Atom(program, "link", {"n3", "n4"}));

  for (size_t i = 0; i < deltas.size(); ++i) {
    auto r = session.ApplyDelta(deltas[i]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    check("after delta " + std::to_string(i));
  }
  EXPECT_GT(session.stats().components_exact, 0u);
}

TEST(ServeTest, EngineOpenSessionCarriesOptions) {
  RcParams p;
  p.num_clusters = 2;
  p.papers_per_cluster = 4;
  auto ds = MakeRcDataset(p);
  ASSERT_TRUE(ds.ok());
  EngineOptions opts;
  opts.grounding.lazy_closure = false;
  opts.total_flips = 30000;
  TuffyEngine engine(ds.value().program, ds.value().evidence, opts);
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto fresh = engine.Run();
  ASSERT_TRUE(fresh.ok());
  EXPECT_NEAR(session.value()->map_cost(), fresh.value().total_cost, 1e-6);
}

TEST(ServeTest, SessionManagerAdmissionAndRelease) {
  MlnProgram program = LinkProgram();
  EvidenceDb evidence;
  evidence.Add(Atom(program, "link", {"n0", "n1"}), true);
  evidence.Add(Atom(program, "label", {"n0", "A"}), true);

  // A 1KB budget cannot admit any session.
  SessionManagerOptions tiny;
  tiny.memory_budget_bytes = 1024;
  SessionManager cramped(tiny);
  auto refused = cramped.Open("s", program, evidence, TestSessionOptions());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(cramped.num_sessions(), 0u);

  // An unlimited manager admits, charges, and releases.
  SessionManager manager(SessionManagerOptions{});
  auto opened = manager.Open("s", program, evidence, TestSessionOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_GT(manager.resident_bytes(), 0u);
  ASSERT_TRUE(manager.Get("s").ok());
  EXPECT_EQ(manager.Get("missing").status().code(), StatusCode::kNotFound);

  EvidenceDelta delta;
  delta.Assert(Atom(program, "link", {"n1", "n2"}), true);
  auto dr = manager.ApplyDelta("s", delta);
  ASSERT_TRUE(dr.ok());

  ASSERT_TRUE(manager.Close("s").ok());
  EXPECT_EQ(manager.num_sessions(), 0u);
  EXPECT_EQ(manager.resident_bytes(), 0u);
}

// A session's footprint counts its resident evidence. Two sessions whose
// evidence differs only by kRows atoms of a closed-world predicate no rule
// mentions ground identically, so their estimates differ by the evidence
// alone: at least the rows' two int64 columns.
TEST(ServeTest, FootprintCountsTheEvidence) {
  auto parsed = ParseProgram(
      "*link(node, node)\n"
      "*note(node, node)\n"
      "label(node, cls)\n"
      "2 link(x, y), label(x, c) => label(y, c)\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  MlnProgram program = parsed.TakeValue();
  program.symbols().Intern("A", "cls");
  for (int i = 0; i < 8; ++i) {
    program.symbols().Intern("n" + std::to_string(i), "node");
  }
  EvidenceDb base;
  base.Add(Atom(program, "link", {"n0", "n1"}), true);
  base.Add(Atom(program, "label", {"n0", "A"}), true);
  EvidenceDb grown = base;
  constexpr size_t kRows = 40;
  for (size_t i = 0; i < kRows; ++i) {
    grown.Add(Atom(program, "note",
                   {"n" + std::to_string(i % 8), "n" + std::to_string(i / 8)}),
              true);
  }
  ASSERT_EQ(grown.num_evidence(), base.num_evidence() + kRows);

  InferenceSession small(program, TestSessionOptions());
  InferenceSession big(program, TestSessionOptions());
  ASSERT_TRUE(small.Open(base).ok());
  ASSERT_TRUE(big.Open(grown).ok());
  ASSERT_EQ(small.atoms().num_atoms(), big.atoms().num_atoms());
  EXPECT_GE(big.EstimateBytes(),
            small.EstimateBytes() + kRows * 2 * sizeof(int64_t));
}

/// One predicate-and-polarity relation of DeltaGrounder's snapshot
/// layout: u32 columns, u64 rows, then column-major i64 cells.
struct SnapshotRelation {
  uint32_t cols = 0;
  std::vector<std::vector<int64_t>> columns;

  uint64_t rows() const { return columns.empty() ? 0 : columns[0].size(); }
};

/// Splits a DeltaGrounder snapshot into its evidence relations (two per
/// predicate, false then true) and the bytes after them.
void SplitSnapshot(const std::string& bytes, size_t num_preds,
                   std::vector<SnapshotRelation>* relations,
                   std::string* rest) {
  BinaryReader in(bytes);
  for (size_t i = 0; i < 2 * num_preds; ++i) {
    SnapshotRelation rel;
    rel.cols = in.U32();
    const uint64_t rows = in.U64();
    rel.columns.assign(rel.cols, std::vector<int64_t>(rows));
    for (auto& col : rel.columns) {
      for (int64_t& v : col) v = in.I64();
    }
    relations->push_back(std::move(rel));
  }
  ASSERT_TRUE(in.ok());
  *rest = bytes.substr(bytes.size() - in.remaining());
}

std::string JoinSnapshot(const std::vector<SnapshotRelation>& relations,
                         const std::string& rest) {
  BinaryWriter out;
  for (const SnapshotRelation& rel : relations) {
    out.U32(rel.cols);
    out.U64(rel.rows());
    for (const auto& col : rel.columns) {
      for (int64_t v : col) out.I64(v);
    }
  }
  return out.Take() + rest;
}

Status LoadForged(const MlnProgram& program, const std::string& bytes) {
  DeltaGrounder restored(program, GroundingOptions{}, OptimizerOptions{});
  BinaryReader in(bytes);
  return restored.LoadState(&in);
}

// Replication ships snapshots over the wire, so LoadState must refuse a
// CRC-valid snapshot that stores an evidence atom twice: repeated within
// one relation (a re-ground would double-count its binding), or listed
// under both polarities (anti-join pruning would read a true atom as
// explicit-false).
TEST(ServeTest, ForgedSnapshotStoringAnEvidenceAtomTwiceIsRefused) {
  MlnProgram program = LinkProgram();
  EvidenceDb evidence;
  evidence.Add(Atom(program, "link", {"n0", "n1"}), true);
  evidence.Add(Atom(program, "link", {"n1", "n2"}), true);
  evidence.Add(Atom(program, "label", {"n0", "A"}), true);
  evidence.Add(Atom(program, "label", {"n2", "B"}), false);
  DeltaGrounder original(program, GroundingOptions{}, OptimizerOptions{});
  ASSERT_TRUE(original.Initialize(evidence).ok());
  BinaryWriter saved;
  original.SaveState(&saved);

  std::vector<SnapshotRelation> relations;
  std::string rest;
  SplitSnapshot(saved.data(), program.num_predicates(), &relations, &rest);
  const size_t link_false = 2 * program.FindPredicate("link").value();
  const size_t link_true = link_false + 1;
  ASSERT_EQ(relations[link_true].rows(), 2u);
  ASSERT_EQ(relations[link_false].rows(), 0u);
  // The harness itself round-trips: the unmodified split loads.
  ASSERT_EQ(JoinSnapshot(relations, rest), saved.data());
  ASSERT_TRUE(LoadForged(program, saved.data()).ok());

  std::vector<SnapshotRelation> repeated = relations;
  for (auto& col : repeated[link_true].columns) col.push_back(col[0]);
  Status st = LoadForged(program, JoinSnapshot(repeated, rest));
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();

  std::vector<SnapshotRelation> both = relations;
  both[link_false].cols = relations[link_true].cols;
  for (const auto& col : relations[link_true].columns) {
    both[link_false].columns.push_back({col[0]});
  }
  st = LoadForged(program, JoinSnapshot(both, rest));
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

/// Offsets and widths (4 or 8 bytes) of every count field of a
/// DeltaGrounder snapshot: each relation's column and row counts; the
/// atom count; the clause count and each clause's literal count; the
/// rule count; each rule's contradiction and entry counts; and each
/// entry's literal count, hard count and count. `contradictions`, if
/// given, receives the offset of each rule's contradiction count.
std::vector<std::pair<size_t, size_t>> SnapshotCountFields(
    const MlnProgram& program, const std::string& bytes,
    std::vector<size_t>* contradictions = nullptr) {
  std::vector<std::pair<size_t, size_t>> fields;
  BinaryReader in(bytes);
  const auto count32 = [&] {
    fields.emplace_back(bytes.size() - in.remaining(), 4);
    return in.U32();
  };
  const auto count64 = [&] {
    fields.emplace_back(bytes.size() - in.remaining(), 8);
    return in.U64();
  };
  for (size_t i = 0; i < 2 * program.num_predicates(); ++i) {
    const uint64_t cols = count32();
    const uint64_t rows = count64();
    for (uint64_t v = 0; v < cols * rows; ++v) in.I64();
  }
  const uint32_t num_atoms = count32();
  for (uint32_t a = 0; a < num_atoms; ++a) {
    const PredicateId pred = in.I32();
    for (int k = 0; k < program.predicate(pred).arity(); ++k) in.I32();
  }
  const uint64_t num_clauses = count64();
  for (uint64_t c = 0; c < num_clauses; ++c) {
    for (uint32_t n = count32(); n > 0; --n) in.I32();
    in.F64();
    in.U8();
  }
  const uint64_t num_rules = count64();
  for (uint64_t r = 0; r < num_rules; ++r) {
    in.F64();
    if (contradictions != nullptr) {
      contradictions->push_back(bytes.size() - in.remaining());
    }
    count64();  // contradictions
    for (uint64_t e = count64(); e > 0; --e) {
      for (uint32_t n = count32(); n > 0; --n) in.I32();
      count64();  // hard count
      count64();  // count
    }
  }
  EXPECT_TRUE(in.Exhausted());
  return fields;
}

/// Loads `bytes` into a fresh grounder. A refusal must be Corruption
/// (returns false); an accepted state must save to bytes that reload and
/// re-save to themselves (returns true).
bool LoadsToAFixpoint(const MlnProgram& program, const std::string& bytes) {
  DeltaGrounder loaded(program, GroundingOptions{}, OptimizerOptions{});
  BinaryReader in(bytes);
  const Status st = loaded.LoadState(&in);
  if (!st.ok()) {
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
    return false;
  }
  BinaryWriter saved;
  loaded.SaveState(&saved);
  DeltaGrounder reloaded(program, GroundingOptions{}, OptimizerOptions{});
  BinaryReader again(saved.data());
  const Status st2 = reloaded.LoadState(&again);
  EXPECT_TRUE(st2.ok()) << st2.ToString();
  EXPECT_EQ(again.remaining(), 0u);
  BinaryWriter resaved;
  reloaded.SaveState(&resaved);
  EXPECT_EQ(resaved.data(), saved.data());
  return true;
}

// Replication ships snapshots and recovery reads them back, so LoadState
// meets forged bytes whose CRC is valid. Every mutant of a real RC
// grounder's state — each count field forged large, then seeded bit
// flips, inserted and deleted bytes, truncations and overwrites — is
// refused with Corruption or loads into a state that re-saves exactly,
// and no count sizes an allocation before its bytes are there. A failure
// names its seed: set kFirstSeed to it and kSeeds to 1 to replay it.
TEST(ServeTest, FuzzMutatedSnapshotsAreRefusedOrResaveExactly) {
  RcParams p;
  p.num_clusters = 4;
  p.papers_per_cluster = 6;
  p.num_categories = 3;
  p.labeled_fraction = 0.6;
  auto ds = MakeRcDataset(p);
  ASSERT_TRUE(ds.ok());
  const MlnProgram& program = ds.value().program;
  const EvidenceDb& evidence = ds.value().evidence;
  DeltaGrounder original(program, GroundingOptions{}, OptimizerOptions{});
  ASSERT_TRUE(original.Initialize(evidence).ok());
  const PredicateId cat = program.FindPredicate("cat").value();
  std::vector<EvidenceDelta> deltas(3);
  for (const auto& [atom, truth] : evidence.entries()) {
    if (atom.pred == cat && truth) {
      deltas[0].Retract(atom);
      break;
    }
  }
  deltas[1].Assert(Atom(program, "cat", {"P0", "Networking"}), true);
  deltas[2].Assert(Atom(program, "refers", {"P0", "P11"}), true);
  for (const EvidenceDelta& d : deltas) {
    ASSERT_TRUE(original.ApplyDelta(d).ok());
  }
  BinaryWriter saved;
  original.SaveState(&saved);
  const std::string base = saved.Take();
  ASSERT_TRUE(LoadsToAFixpoint(program, base));

  const auto fields = SnapshotCountFields(program, base);
  ASSERT_GT(fields.size(), 100u);
  for (const auto& [offset, width] : fields) {
    const std::vector<uint64_t> forged =
        width == 4 ? std::vector<uint64_t>{0xFFFFFFFFu, 0x80000000u}
                   : std::vector<uint64_t>{~uint64_t{0}, uint64_t{1} << 40,
                                           uint64_t{1} << 32};
    for (uint64_t value : forged) {
      SCOPED_TRACE("count at byte " + std::to_string(offset) + " forged to " +
                   std::to_string(value));
      std::string bytes = base;
      std::memcpy(&bytes[offset], &value, width);  // little-endian
      LoadsToAFixpoint(program, bytes);
    }
  }

  constexpr uint64_t kFirstSeed = 0;
  constexpr uint64_t kSeeds = 10000;
  size_t accepted = 0;
  for (uint64_t seed = kFirstSeed; seed < kFirstSeed + kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::string bytes = base;
    const int edits = 1 + static_cast<int>(rng.Uniform(3));
    for (int k = 0; k < edits; ++k) {
      const size_t pos = rng.Uniform(bytes.size() + 1);
      switch (rng.Uniform(5)) {
        case 0:  // flip one bit
          if (pos < bytes.size()) {
            bytes[pos] ^= static_cast<char>(1u << rng.Uniform(8));
          }
          break;
        case 1:  // insert a byte
          bytes.insert(bytes.begin() + pos,
                       static_cast<char>(rng.Uniform(256)));
          break;
        case 2:  // delete a short run
          bytes.erase(pos, 1 + rng.Uniform(4));
          break;
        case 3:  // truncate
          bytes.resize(pos);
          break;
        case 4:  // overwrite a run with random bytes
          for (size_t i = pos; i < bytes.size() && i < pos + 8; ++i) {
            bytes[i] = static_cast<char>(rng.Uniform(256));
          }
          break;
      }
    }
    accepted += LoadsToAFixpoint(program, bytes) ? 1 : 0;
  }
  // Flips that keep an evidence value inside the symbol table, flips in
  // a hard rule's contradiction count that keep it non-negative, and
  // flips in the low bits of weights and fixed costs load (a weight or
  // fixed cost loads as what its counts derive); the property is checked
  // on both sides.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, kSeeds);
}

// A CRC-valid snapshot can still hold state no session reaches: a
// constant past the symbol table (AtomStore::AtomName would index past
// it), or a contradiction count that is negative or belongs to a soft
// rule (hard_contradiction() would report a soft rule). LoadState
// refuses each forgery of a real RC grounder's state.
TEST(ServeTest, ForgedSnapshotConstantsAndContradictionCountsAreRefused) {
  RcParams p;
  p.num_clusters = 4;
  p.papers_per_cluster = 6;
  p.num_categories = 3;
  p.labeled_fraction = 0.6;
  auto ds = MakeRcDataset(p);
  ASSERT_TRUE(ds.ok());
  const MlnProgram& program = ds.value().program;
  DeltaGrounder original(program, GroundingOptions{}, OptimizerOptions{});
  ASSERT_TRUE(original.Initialize(ds.value().evidence).ok());
  BinaryWriter saved;
  original.SaveState(&saved);
  const std::string base = saved.Take();
  ASSERT_TRUE(LoadForged(program, base).ok());
  const int32_t num_constants =
      static_cast<int32_t>(program.symbols().num_constants());
  const auto expect_refused = [&](const std::string& bytes) {
    const Status st = LoadForged(program, bytes);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  };

  // The first paper row names a constant past the table.
  std::vector<SnapshotRelation> relations;
  std::string rest;
  SplitSnapshot(base, program.num_predicates(), &relations, &rest);
  const size_t paper_true = 2 * program.FindPredicate("paper").value() + 1;
  ASSERT_GT(relations[paper_true].rows(), 0u);
  relations[paper_true].columns[0][0] = num_constants + 5;
  {
    SCOPED_TRACE("evidence value");
    expect_refused(JoinSnapshot(relations, rest));
  }

  // The first atom's first argument lies past the table: the atom count,
  // then the atom's predicate, then its arguments.
  std::vector<size_t> contradictions;
  const auto fields = SnapshotCountFields(program, base, &contradictions);
  const size_t atom_count = fields[4 * program.num_predicates()].first;
  const auto forge_i32 = [&](size_t offset, int32_t value) {
    std::string bytes = base;
    std::memcpy(&bytes[offset], &value, sizeof(value));  // little-endian
    return bytes;
  };
  {
    SCOPED_TRACE("atom argument");
    expect_refused(forge_i32(atom_count + 8, num_constants));
  }

  // A soft rule's contradiction count is 1; a hard rule's is -1.
  ASSERT_EQ(contradictions.size(), program.clauses().size());
  int soft = -1;
  int hard = -1;
  for (size_t r = 0; r < program.clauses().size(); ++r) {
    (program.clauses()[r].hard ? hard : soft) = static_cast<int>(r);
  }
  ASSERT_GE(soft, 0);
  ASSERT_GE(hard, 0);
  const auto forge_i64 = [&](size_t offset, int64_t value) {
    std::string bytes = base;
    std::memcpy(&bytes[offset], &value, sizeof(value));
    return bytes;
  };
  {
    SCOPED_TRACE("soft rule contradiction");
    expect_refused(forge_i64(contradictions[soft], 1));
  }
  {
    SCOPED_TRACE("negative contradiction");
    expect_refused(forge_i64(contradictions[hard], -1));
  }
}

TEST(ServeTest, ConcurrentSessionsOnSharedPool) {
  RcParams p;
  p.num_clusters = 3;
  p.papers_per_cluster = 4;
  auto ds = MakeRcDataset(p);
  ASSERT_TRUE(ds.ok());

  SessionManagerOptions mopts;
  mopts.num_threads = 4;
  SessionManager manager(mopts);
  auto s1 = manager.Open("a", ds.value().program, ds.value().evidence,
                         TestSessionOptions());
  auto s2 = manager.Open("b", ds.value().program, ds.value().evidence,
                         TestSessionOptions());
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  // Identical sessions over the shared pool produce identical state.
  EXPECT_EQ(s1.value()->truth(), s2.value()->truth());
  EXPECT_EQ(s1.value()->map_cost(), s2.value()->map_cost());
  EXPECT_NEAR(s1.value()->map_cost(),
              FreshCost(ds.value().program, ds.value().evidence), 1e-6);
}

}  // namespace
}  // namespace tuffy
