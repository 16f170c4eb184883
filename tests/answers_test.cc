// Pinned answers: the exact bits every inference path produces on small,
// fixed, single-threaded inputs. A refactor of the search kernel, the
// exact solver, MC-SAT, the learners or the serving session must leave
// every row unchanged; a change that means to move answers regenerates
// the tables from the printout a mismatch produces and says so.
//
// The constants come from one toolchain (g++ 12, glibc); answers across
// toolchains are not what this test pins.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "datagen/datasets.h"
#include "exec/tuffy_engine.h"
#include "ground/rule_count_index.h"
#include "infer/brute_force.h"
#include "infer/problem.h"
#include "learn/counts.h"
#include "oracle_support.h"
#include "serve/delta_grounder.h"
#include "util/rng.h"

namespace tuffy {
namespace {

using Table = std::vector<std::pair<std::string, uint64_t>>;

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// FNV-1a over a byte range.
uint64_t Fnv(const void* data, size_t n,
             uint64_t h = 0xcbf29ce484222325ull) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t Hash(const std::vector<uint8_t>& v) {
  return Fnv(v.data(), v.size());
}

uint64_t Hash(const std::vector<double>& v) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (double d : v) {
    const uint64_t b = Bits(d);
    h = Fnv(&b, sizeof(b), h);
  }
  return h;
}

/// Compares a table of actual values against the pinned one. On any
/// difference it names the differing rows and prints the whole actual
/// table in the form the expected table is written in.
void CheckTable(const char* what, const Table& actual,
                const Table& expected) {
  if (actual == expected) return;
  std::string diff;
  for (size_t i = 0; i < std::max(actual.size(), expected.size()); ++i) {
    const std::string a = i < actual.size() ? actual[i].first : "<none>";
    const std::string e = i < expected.size() ? expected[i].first : "<none>";
    const uint64_t av = i < actual.size() ? actual[i].second : 0;
    const uint64_t ev = i < expected.size() ? expected[i].second : 0;
    if (a != e || av != ev) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "  row %zu: actual %s=0x%016" PRIx64
                    " expected %s=0x%016" PRIx64 "\n",
                    i, a.c_str(), av, e.c_str(), ev);
      diff += line;
    }
  }
  std::string table;
  for (const auto& [name, value] : actual) {
    char line[256];
    std::snprintf(line, sizeof(line), "      {\"%s\", 0x%016" PRIx64 "ull},\n",
                  name.c_str(), value);
    table += line;
  }
  ADD_FAILURE() << what << " answers moved:\n"
                << diff << "actual table:\n"
                << table;
}

/// The datasets at `tuffy_cli -gen` sizes.
Dataset Generate(const std::string& name) {
  if (name == "rc") {
    RcParams p;
    p.num_clusters = 4;
    p.papers_per_cluster = 6;
    p.num_categories = 3;
    p.authors_per_cluster = 3;
    p.citations_per_paper = 2;
    p.labeled_fraction = 0.6;
    return MakeRcDataset(p).TakeValue();
  }
  if (name == "ie") {
    IeParams p;
    p.num_citations = 20;
    p.positions_per_citation = 3;
    p.num_fields = 3;
    p.vocabulary = 15;
    p.num_token_rules = 20;
    return MakeIeDataset(p).TakeValue();
  }
  if (name == "lp") {
    LpParams p;
    p.num_professors = 4;
    p.num_students = 12;
    p.num_courses = 6;
    p.num_publications = 20;
    return MakeLpDataset(p).TakeValue();
  }
  ErParams p;
  p.num_records = 12;
  p.num_entities = 4;
  return MakeErDataset(p).TakeValue();
}

EngineOptions BaseOptions() {
  EngineOptions o;
  o.num_threads = 1;
  o.seed = 11;
  o.total_flips = 100000;
  return o;
}

struct Config {
  const char* name;
  EngineOptions options;
};

std::vector<Config> MapConfigs() {
  std::vector<Config> out;
  EngineOptions o = BaseOptions();
  o.search_mode = SearchMode::kComponentAware;
  o.exact_fast_path = true;
  out.push_back({"component_exact", o});
  o.exact_fast_path = false;
  out.push_back({"component_sampled", o});
  o = BaseOptions();
  o.search_mode = SearchMode::kInMemory;
  out.push_back({"memory", o});
  o = BaseOptions();
  o.search_mode = SearchMode::kPartitionAware;
  o.memory_budget_bytes = 4000;
  out.push_back({"partition", o});
  o = BaseOptions();
  o.search_mode = SearchMode::kDisk;
  o.disk_io_latency_us = 0;
  o.total_flips = 3000;
  out.push_back({"disk", o});
  return out;
}

TEST(AnswersTest, MapSearchOnEveryDatasetAndMode) {
  Table actual;
  for (const char* ds : {"rc", "ie", "lp", "er"}) {
    Dataset d = Generate(ds);
    for (const Config& cfg : MapConfigs()) {
      TuffyEngine engine(d.program, d.evidence, cfg.options);
      auto r = engine.Run();
      ASSERT_TRUE(r.ok()) << ds << "/" << cfg.name << ": "
                          << r.status().ToString();
      const EngineResult& er = r.value();
      if (cfg.options.search_mode == SearchMode::kPartitionAware) {
        ASSERT_GE(er.num_partitions, 2u) << ds;
      }
      const std::string key = std::string(ds) + "/" + cfg.name;
      actual.emplace_back(key + "/total_cost", Bits(er.total_cost));
      actual.emplace_back(key + "/flips", er.flips);
      actual.emplace_back(key + "/truth", Hash(er.truth));
    }
  }
  CheckTable("MAP search", actual, {
      {"rc/component_exact/total_cost", 0x0000000000000000ull},
      {"rc/component_exact/flips", 0x0000000000000000ull},
      {"rc/component_exact/truth", 0x70a8e5e967aa760bull},
      {"rc/component_sampled/total_cost", 0x0000000000000000ull},
      {"rc/component_sampled/flips", 0x0000000000000002ull},
      {"rc/component_sampled/truth", 0x70a8e5e967aa760bull},
      {"rc/memory/total_cost", 0x0000000000000000ull},
      {"rc/memory/flips", 0x0000000000000000ull},
      {"rc/memory/truth", 0x70a8e5e967aa760bull},
      {"rc/partition/total_cost", 0x0000000000000000ull},
      {"rc/partition/flips", 0x0000000000000000ull},
      {"rc/partition/truth", 0x70a8e5e967aa760bull},
      {"rc/disk/total_cost", 0x0000000000000000ull},
      {"rc/disk/flips", 0x0000000000000000ull},
      {"rc/disk/truth", 0x70a8e5e967aa760bull},
      {"ie/component_exact/total_cost", 0x4040ba7ef9db22d2ull},
      {"ie/component_exact/flips", 0x0000000000000000ull},
      {"ie/component_exact/truth", 0xec8388979a59a4e3ull},
      {"ie/component_sampled/total_cost", 0x4040ba7ef9db22d2ull},
      {"ie/component_sampled/flips", 0x0000000000018692ull},
      {"ie/component_sampled/truth", 0xec8388979a59a4e3ull},
      {"ie/memory/total_cost", 0x404df3126e978d50ull},
      {"ie/memory/flips", 0x00000000000186a0ull},
      {"ie/memory/truth", 0xa9a403530d7ff0f8ull},
      {"ie/partition/total_cost", 0x4040ba7ef9db22d2ull},
      {"ie/partition/flips", 0x0000000000018618ull},
      {"ie/partition/truth", 0x228c78dba6adb820ull},
      {"ie/disk/total_cost", 0x404dcd2f1a9fbe78ull},
      {"ie/disk/flips", 0x0000000000000bb8ull},
      {"ie/disk/truth", 0x2101bd032f5bd216ull},
      {"lp/component_exact/total_cost", 0x4028333333333335ull},
      {"lp/component_exact/flips", 0x00000000000186a0ull},
      {"lp/component_exact/truth", 0xafb6d9738e77368full},
      {"lp/component_sampled/total_cost", 0x4028333333333335ull},
      {"lp/component_sampled/flips", 0x00000000000186a0ull},
      {"lp/component_sampled/truth", 0xafb6d9738e77368full},
      {"lp/memory/total_cost", 0x4028333333333335ull},
      {"lp/memory/flips", 0x00000000000186a0ull},
      {"lp/memory/truth", 0xafb6d9738e77368full},
      {"lp/partition/total_cost", 0x4028333333333335ull},
      {"lp/partition/flips", 0x0000000000018660ull},
      {"lp/partition/truth", 0xafb6d9738e77368full},
      {"lp/disk/total_cost", 0x402c000000000002ull},
      {"lp/disk/flips", 0x0000000000000bb8ull},
      {"lp/disk/truth", 0x5a20c1945d7328b1ull},
      {"er/component_exact/total_cost", 0x4028333333333337ull},
      {"er/component_exact/flips", 0x00000000000186a0ull},
      {"er/component_exact/truth", 0x7b6e15daa3824243ull},
      {"er/component_sampled/total_cost", 0x4028333333333337ull},
      {"er/component_sampled/flips", 0x00000000000186a0ull},
      {"er/component_sampled/truth", 0x7b6e15daa3824243ull},
      {"er/memory/total_cost", 0x4025666666666669ull},
      {"er/memory/flips", 0x00000000000186a0ull},
      {"er/memory/truth", 0x8e7c313e7eadc0f5ull},
      {"er/partition/total_cost", 0x4037e66666666669ull},
      {"er/partition/flips", 0x000000000000ac03ull},
      {"er/partition/truth", 0xc46dbd713b3f1e21ull},
      {"er/disk/total_cost", 0x4030ccccccccccceull},
      {"er/disk/flips", 0x0000000000000bb8ull},
      {"er/disk/truth", 0x4e150d8a8987a743ull},
  });
}

TEST(AnswersTest, MarginalsWithAndWithoutTheExactPath) {
  Table actual;
  for (const char* ds : {"rc", "ie"}) {
    Dataset d = Generate(ds);
    for (bool exact : {true, false}) {
      EngineOptions o = BaseOptions();
      o.task = InferenceTask::kMarginal;
      o.exact_fast_path = exact;
      o.mcsat_samples = 100;
      o.mcsat_burn_in = 10;
      TuffyEngine engine(d.program, d.evidence, o);
      auto r = engine.Run();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      actual.emplace_back(std::string(ds) + (exact ? "/exact" : "/sampled") +
                              "/marginals",
                          Hash(r.value().marginals));
    }
  }
  CheckTable("marginals", actual, {
      {"rc/exact/marginals", 0x1872b05068889940ull},
      {"rc/sampled/marginals", 0x6bb6fd56ce5ae495ull},
      {"ie/exact/marginals", 0xf158d9c0f63c37f3ull},
      {"ie/sampled/marginals", 0x28083984974b8527ull},
  });
}

TEST(AnswersTest, LearnedWeightsOnRc) {
  Table actual;
  Dataset d = Generate("rc");
  for (LearnAlgorithm algo :
       {LearnAlgorithm::kVotedPerceptron, LearnAlgorithm::kDiagonalNewton}) {
    LearnOptions lo;
    lo.algorithm = algo;
    lo.max_epochs = 5;
    lo.query_predicates = {"cat"};
    lo.seed = 5;
    TuffyEngine engine(d.program, d.evidence, BaseOptions());
    auto r = engine.Learn(lo);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const char* tag =
        algo == LearnAlgorithm::kVotedPerceptron ? "vp" : "dn";
    const std::vector<double>& w = r.value().weights;
    for (size_t i = 0; i < w.size(); ++i) {
      actual.emplace_back(std::string("learn/") + tag + "/w" +
                              std::to_string(i),
                          Bits(w[i]));
    }
  }
  CheckTable("learned weights", actual, {
      {"learn/vp/w0", 0x401d67f626190ae8ull},
      {"learn/vp/w1", 0xbfc398f03e57ec43ull},
      {"learn/vp/w2", 0x4013e92c5cc24646ull},
      {"learn/vp/w3", 0x0000000000000000ull},
      {"learn/vp/w4", 0xc0052ef455681ccaull},
      {"learn/dn/w0", 0x4014c23880eb8442ull},
      {"learn/dn/w1", 0xbfbc4b1add7d775aull},
      {"learn/dn/w2", 0x4003e6262e060be7ull},
      {"learn/dn/w3", 0x0000000000000000ull},
      {"learn/dn/w4", 0xc0017a74ba8d1278ull},
  });
}

GroundAtom Refers(const MlnProgram& program, const char* a, const char* b) {
  return OracleAtom(program, "refers", {a, b});
}

TEST(AnswersTest, SessionOpenAndThreeDeltasOnRc) {
  Table actual;
  Dataset d = Generate("rc");
  EngineOptions o = BaseOptions();
  o.total_flips = 60000;
  TuffyEngine engine(d.program, d.evidence, o);
  auto opened = engine.OpenSession();
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  InferenceSession& s = *opened.value();
  actual.emplace_back("open/map_cost", Bits(s.map_cost()));
  actual.emplace_back("open/truth", Hash(s.truth()));
  const std::pair<const char*, const char*> edits[] = {
      {"P0", "P11"}, {"P6", "P17"}, {"P12", "P23"}};
  for (size_t i = 0; i < 3; ++i) {
    EvidenceDelta delta;
    delta.Assert(Refers(d.program, edits[i].first, edits[i].second), true);
    auto applied = s.ApplyDelta(delta);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    const std::string key = "delta" + std::to_string(i + 1);
    actual.emplace_back(key + "/map_cost", Bits(s.map_cost()));
    actual.emplace_back(key + "/truth", Hash(s.truth()));
  }
  CheckTable("session", actual, {
      {"open/map_cost", 0x0000000000000000ull},
      {"open/truth", 0x4ff86d5359d63277ull},
      {"delta1/map_cost", 0x4000000000000000ull},
      {"delta1/truth", 0x4ff86d5359d63277ull},
      {"delta2/map_cost", 0x4000000000000000ull},
      {"delta2/truth", 0xac8b348678619855ull},
      {"delta3/map_cost", 0x4010000000000000ull},
      {"delta3/truth", 0x4ff86d5359d63277ull},
  });
}

/// learn_test's random MRF with rule provenance.
GroundClauseStore RandomStore(size_t num_atoms, int num_clauses,
                              int num_rules, uint64_t seed) {
  Rng rng(seed);
  GroundClauseStore store;
  for (int i = 0; i < num_clauses; ++i) {
    GroundClause c;
    int len = 1 + static_cast<int>(rng.Uniform(3));
    for (int l = 0; l < len; ++l) {
      AtomId a = static_cast<AtomId>(rng.Uniform(num_atoms));
      bool dup = false;
      for (Lit existing : c.lits) dup |= (LitAtom(existing) == a);
      if (!dup) c.lits.push_back(MakeLit(a, rng.Bernoulli(0.5)));
    }
    c.weight = rng.Bernoulli(0.25) ? -(0.3 + rng.NextDouble())
                                   : (0.3 + rng.NextDouble());
    c.hard = rng.Bernoulli(0.1);
    c.rule_id = i % num_rules;
    store.Add(std::move(c));
  }
  return store;
}

TEST(AnswersTest, BruteForceOraclesOnTractableComponents) {
  Table actual;
  for (uint64_t idx : {0, 1, 2, 3, 5, 8, 13}) {
    TractableMrfParams params = VariedTractableParams(idx);
    params.max_width = 1 + static_cast<int>(idx % 3);
    size_t num_atoms = 0;
    std::vector<GroundClause> clauses = MakeTractableMrf(params, &num_atoms);
    std::vector<SubProblem> subs = SplitComponents(num_atoms, clauses);
    for (size_t c = 0; c < subs.size(); ++c) {
      const Problem& p = subs[c].problem;
      const std::string key =
          "mrf" + std::to_string(idx) + "/c" + std::to_string(c);
      auto map = ExactMap(p, 1e6);
      ASSERT_TRUE(map.ok()) << map.status().ToString();
      actual.emplace_back(key + "/map_cost", Bits(map.value().cost));
      actual.emplace_back(key + "/map_truth", Hash(map.value().truth));
      auto marg = ExactMarginals(p);
      actual.emplace_back(key + "/marginals",
                          marg.ok() ? Hash(marg.value()) : 0);
      auto logz = ExactLogZ(p);
      actual.emplace_back(key + "/logz", logz.ok() ? Bits(logz.value()) : 0);
    }
  }
  for (bool keep_hard : {false, true}) {
    GroundClauseStore store = RandomStore(10, 24, 4, /*seed=*/42);
    if (!keep_hard) {
      for (GroundClause& c : store.mutable_clauses()) c.hard = false;
    }
    RuleCountIndex index = BuildRuleCountIndex(store, 4);
    Problem problem = MakeWholeProblem(10, store.clauses());
    auto fe = ExactFormulaExpectations(problem, index, 12);
    const std::string key =
        std::string("expectations/") + (keep_hard ? "hard" : "soft");
    actual.emplace_back(key + "/mean", fe.ok() ? Hash(fe.value().mean) : 0);
    actual.emplace_back(key + "/var", fe.ok() ? Hash(fe.value().var) : 0);
  }
  CheckTable("brute-force oracles", actual, {
      {"mrf0/c0/map_cost", 0x0000000000000000ull},
      {"mrf0/c0/map_truth", 0x08328807b4eb6fedull},
      {"mrf0/c0/marginals", 0x6cbf064e8c327bd9ull},
      {"mrf0/c0/logz", 0x3ff2df591aea37c8ull},
      {"mrf1/c0/map_cost", 0x0000000000000000ull},
      {"mrf1/c0/map_truth", 0x082f2307b4e88e77ull},
      {"mrf1/c0/marginals", 0xab31e51da45c8cb5ull},
      {"mrf1/c0/logz", 0x3ff4b462b6e00543ull},
      {"mrf1/c1/map_cost", 0x0000000000000000ull},
      {"mrf1/c1/map_truth", 0xaf63bd4c8601b7dfull},
      {"mrf1/c1/marginals", 0x5512e41875ab6f3dull},
      {"mrf1/c1/logz", 0x3fe0bd6cffe83c7bull},
      {"mrf2/c0/map_cost", 0x0000000000000000ull},
      {"mrf2/c0/map_truth", 0xaf63bd4c8601b7dfull},
      {"mrf2/c0/marginals", 0xdda18fcf197b64d3ull},
      {"mrf2/c0/logz", 0x3fde5746fdb5c064ull},
      {"mrf2/c1/map_cost", 0x0000000000000000ull},
      {"mrf2/c1/map_truth", 0x082f2207b4e88cc4ull},
      {"mrf2/c1/marginals", 0xe9b63640eb6fec28ull},
      {"mrf2/c1/logz", 0x3fed50d4f0f949e8ull},
      {"mrf2/c2/map_cost", 0x3ffc000000000000ull},
      {"mrf2/c2/map_truth", 0xd949ad186c0c4e41ull},
      {"mrf2/c2/marginals", 0x591df308e3a09e5bull},
      {"mrf2/c2/logz", 0xbff4a472681c3859ull},
      {"mrf3/c0/map_cost", 0x0000000000000000ull},
      {"mrf3/c0/map_truth", 0xd80d6caea7dc7eecull},
      {"mrf3/c0/marginals", 0x705a7d86f6f90090ull},
      {"mrf3/c0/logz", 0x4000c8af47e70137ull},
      {"mrf3/c1/map_cost", 0x0000000000000000ull},
      {"mrf3/c1/map_truth", 0xaf63bd4c8601b7dfull},
      {"mrf3/c1/marginals", 0x2f70afa976e1f20cull},
      {"mrf3/c1/logz", 0x3fe43e4055056374ull},
      {"mrf3/c2/map_cost", 0x0000000000000000ull},
      {"mrf3/c2/map_truth", 0xd810d1aea7df6062ull},
      {"mrf3/c2/marginals", 0x84f1097e6da74fc7ull},
      {"mrf3/c2/logz", 0x3ff8b3956e5640e9ull},
      {"mrf3/c3/map_cost", 0x0000000000000000ull},
      {"mrf3/c3/map_truth", 0xb5d0df774c7d72e6ull},
      {"mrf3/c3/marginals", 0xb34c455b1e9843d4ull},
      {"mrf3/c3/logz", 0x3fe3b6ac455b9f04ull},
      {"mrf5/c0/map_cost", 0x0000000000000000ull},
      {"mrf5/c0/map_truth", 0xaf63bd4c8601b7dfull},
      {"mrf5/c0/marginals", 0xaae7e93229e886a8ull},
      {"mrf5/c0/logz", 0x3fe62e42fefa39efull},
      {"mrf5/c1/map_cost", 0x0000000000000000ull},
      {"mrf5/c1/map_truth", 0xaf63bd4c8601b7dfull},
      {"mrf5/c1/marginals", 0xaae7e93229e886a8ull},
      {"mrf5/c1/logz", 0x3fe62e42fefa39efull},
      {"mrf8/c0/map_cost", 0x4009000000000000ull},
      {"mrf8/c0/map_truth", 0xd0a39818672732bfull},
      {"mrf8/c0/marginals", 0xba5664df206deec5ull},
      {"mrf8/c0/logz", 0xc009000000000000ull},
      {"mrf13/c0/map_cost", 0x3fd0000000000000ull},
      {"mrf13/c0/map_truth", 0xe0b6e7aeacc47d97ull},
      {"mrf13/c0/marginals", 0x2e1a31c86aec47deull},
      {"mrf13/c0/logz", 0x3fed6cee02d56528ull},
      {"mrf13/c1/map_cost", 0x0000000000000000ull},
      {"mrf13/c1/map_truth", 0xd94d12186c0f2fb7ull},
      {"mrf13/c1/marginals", 0x986043247df046caull},
      {"mrf13/c1/logz", 0x3ff721787cac5b37ull},
      {"expectations/soft/mean", 0xb480c55544f9a5ecull},
      {"expectations/soft/var", 0xbd62b2267cc929fdull},
      {"expectations/hard/mean", 0x754c8959b8e9e983ull},
      {"expectations/hard/var", 0x2ec336b6ec5a05a8ull},
  });
}

}  // namespace
}  // namespace tuffy
