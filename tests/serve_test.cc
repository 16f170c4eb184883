#include <gtest/gtest.h>

#include <string>
#include <vector>

#include <algorithm>
#include <map>

#include "datagen/datasets.h"
#include "exec/tuffy_engine.h"
#include "infer/exact/exact_solver.h"
#include "mln/parser.h"
#include "oracle_support.h"
#include "serve/delta_grounder.h"
#include "serve/session_manager.h"
#include "util/mem_tracker.h"

namespace tuffy {
namespace {

// A link-propagation program whose MRF components are controlled
// entirely by `link` evidence: ground clauses exist only where links do,
// so retracting a link can kill a component's last clause and adding one
// can merge two components.
MlnProgram LinkProgram() {
  auto r = ParseProgram(
      "*link(node, node)\n"
      "label(node, cls)\n"
      "2 link(x, y), label(x, c) => label(y, c)\n");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  MlnProgram program = r.TakeValue();
  program.symbols().Intern("A", "cls");
  program.symbols().Intern("B", "cls");
  for (int i = 0; i < 6; ++i) {
    program.symbols().Intern("n" + std::to_string(i), "node");
  }
  return program;
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

/// Canonical, atom-id-independent form of a resident clause set: every
/// literal spelled out as (sign, pred, args), clauses sorted. Two
/// grounders that numbered session atoms differently still compare equal
/// iff their clause sets are semantically identical.
using CanonLit = std::pair<bool, std::pair<PredicateId, std::vector<ConstantId>>>;
using CanonClause = std::vector<CanonLit>;
std::map<CanonClause, std::pair<double, bool>> Canonicalize(
    const DeltaGrounder& dg) {
  std::map<CanonClause, std::pair<double, bool>> out;
  for (const GroundClause& c : dg.clauses()) {
    CanonClause cc;
    for (Lit l : c.lits) {
      const GroundAtom& atom = dg.atoms().atom(LitAtom(l));
      cc.emplace_back(LitPositive(l),
                      std::make_pair(atom.pred, atom.args));
    }
    std::sort(cc.begin(), cc.end());
    out[cc] = {c.weight, c.hard};
  }
  return out;
}

TEST(ServeTest, BindingLevelDeltaMatchesFullReground) {
  // The same delta stream applied three ways — binding-level semi-joins,
  // full per-rule re-grounds, and a from-scratch grounder over the final
  // evidence — must produce identical clause sets, weights, and fixed
  // costs. Covers open-world relabels and closed-world (binding-literal)
  // link assertion + retraction. The rule weight is deliberately not
  // exactly representable as a repeated sum (0.1): contribution weights
  // must derive as weight x count, so incremental and full paths agree
  // bit for bit anyway.
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

  GroundingOptions binding_opts;
  GroundingOptions full_opts;
  full_opts.binding_level_deltas = false;
  DeltaGrounder binding(program, binding_opts, OptimizerOptions{});
  DeltaGrounder full(program, full_opts, OptimizerOptions{});
  ASSERT_TRUE(binding.Initialize(evidence).ok());
  ASSERT_TRUE(full.Initialize(evidence).ok());

  std::vector<EvidenceDelta> deltas;
  {
    EvidenceDelta d;  // retract a link mid-chain (kills clauses)
    d.Retract(Atom(program, "link", {"n2", "n3"}));
    deltas.push_back(d);
  }
  {
    EvidenceDelta d;  // add a new link (new bindings) + relabel
    d.Assert(Atom(program, "link", {"n0", "n4"}), true);
    d.Assert(Atom(program, "label", {"n1", "B"}), true);
    deltas.push_back(d);
  }
  {
    EvidenceDelta d;  // flip a label to false, restore the link
    d.Assert(Atom(program, "label", {"n0", "A"}), false);
    d.Assert(Atom(program, "link", {"n2", "n3"}), true);
    deltas.push_back(d);
  }

  EvidenceDb accumulated = evidence;
  for (size_t i = 0; i < deltas.size(); ++i) {
    auto rb = binding.ApplyDelta(deltas[i]);
    auto rf = full.ApplyDelta(deltas[i]);
    ASSERT_TRUE(rb.ok()) << rb.status().ToString();
    ASSERT_TRUE(rf.ok()) << rf.status().ToString();
    EXPECT_GT(rb.value().rules_delta_ground, 0u) << "delta " << i;
    EXPECT_EQ(rf.value().rules_delta_ground, 0u);
    for (const auto& [atom, truth] : deltas[i].assertions) {
      accumulated.Add(atom, truth);
    }
    for (const GroundAtom& atom : deltas[i].retractions) {
      accumulated.Remove(atom);
    }

    EXPECT_EQ(Canonicalize(binding), Canonicalize(full)) << "delta " << i;
    EXPECT_EQ(binding.fixed_cost(), full.fixed_cost()) << "delta " << i;
    EXPECT_EQ(binding.hard_contradiction(), full.hard_contradiction());

    DeltaGrounder fresh(program, binding_opts, OptimizerOptions{});
    ASSERT_TRUE(fresh.Initialize(accumulated).ok());
    EXPECT_EQ(Canonicalize(binding), Canonicalize(fresh)) << "delta " << i;
    EXPECT_EQ(binding.fixed_cost(), fresh.fixed_cost()) << "delta " << i;
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
  EXPECT_EQ(session.evidence().entries().count(
                Atom(program, "label", {"n0", "A"})),
            1u);

  // Assert + retract an atom absent from the evidence: the assertion
  // still wins (set semantics, not command order).
  EvidenceDelta add_both;
  add_both.Assert(Atom(program, "label", {"n1", "B"}), true);
  add_both.Retract(Atom(program, "label", {"n1", "B"}));
  auto r2 = session.ApplyDelta(add_both);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.value().edits.no_op);
  EXPECT_EQ(session.evidence().entries().count(
                Atom(program, "label", {"n1", "B"})),
            1u);
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
      if (sub.problem.clauses.empty()) continue;
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
  const int64_t search_before =
      MemTracker::Global().CurrentBytes(MemCategory::kSearch);
  SessionManager manager(SessionManagerOptions{});
  auto opened = manager.Open("s", program, evidence, TestSessionOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_GT(manager.resident_bytes(), 0u);
  EXPECT_GT(MemTracker::Global().CurrentBytes(MemCategory::kSearch),
            search_before);
  ASSERT_TRUE(manager.Get("s").ok());
  EXPECT_EQ(manager.Get("missing").status().code(), StatusCode::kNotFound);

  EvidenceDelta delta;
  delta.Assert(Atom(program, "link", {"n1", "n2"}), true);
  auto dr = manager.ApplyDelta("s", delta);
  ASSERT_TRUE(dr.ok());

  ASSERT_TRUE(manager.Close("s").ok());
  EXPECT_EQ(manager.num_sessions(), 0u);
  EXPECT_EQ(manager.resident_bytes(), 0u);
  EXPECT_EQ(MemTracker::Global().CurrentBytes(MemCategory::kSearch),
            search_before);
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
