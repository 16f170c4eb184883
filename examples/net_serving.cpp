// Network serving smoke: start the net/ front end in-process on an
// ephemeral loopback port, drive it with the blocking client — open a
// session, stream two evidence deltas, query marginals and the MAP
// state — and verify the served MAP cost equals a from-scratch
// TuffyEngine run over the accumulated evidence. Exits non-zero on any
// mismatch, so CI can use it as the wire-equivalence gate.

#include <cmath>
#include <cstdio>
#include <vector>

#include "datagen/datasets.h"
#include "durability/snapshot.h"
#include "exec/tuffy_engine.h"
#include "net/client.h"
#include "net/server.h"

using namespace tuffy;  // NOLINT: example brevity

namespace {

GroundAtom CatAtom(const MlnProgram& program, const char* paper,
                   const char* category) {
  GroundAtom atom;
  atom.pred = program.FindPredicate("cat").value();
  atom.args = {program.symbols().Find(paper),
               program.symbols().Find(category)};
  return atom;
}

void FoldDelta(const EvidenceDelta& delta, EvidenceDb* evidence) {
  for (const auto& [atom, truth] : delta.assertions) {
    evidence->Add(atom, truth);
  }
  for (const GroundAtom& atom : delta.retractions) {
    evidence->Remove(atom);
  }
}

}  // namespace

int main() {
  RcParams params;
  params.num_clusters = 4;
  params.papers_per_cluster = 6;
  params.num_categories = 3;
  params.labeled_fraction = 0.6;
  auto ds = MakeRcDataset(params);
  if (!ds.ok()) {
    std::fprintf(stderr, "dataset: %s\n", ds.status().ToString().c_str());
    return 1;
  }
  MlnProgram& program = ds.value().program;
  EvidenceDb evidence = ds.value().evidence;

  ServerOptions opts;
  opts.session.total_flips = 80000;
  opts.session.seed = 42;
  opts.session.track_marginals = true;
  Server server(program, evidence, opts);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("server listening on 127.0.0.1:%u\n", server.port());

  Client client;
  Status connected = client.Connect("127.0.0.1", server.port());
  if (!connected.ok()) {
    std::fprintf(stderr, "connect: %s\n", connected.ToString().c_str());
    return 1;
  }

  // Returns the reply by value: `r` is usually a temporary that dies at
  // the end of the caller's full expression.
  auto check = [](const char* what,
                  const Result<NetResponse>& r) -> NetResponse {
    if (!r.ok()) {
      std::fprintf(stderr, "%s transport error: %s\n", what,
                   r.status().ToString().c_str());
      std::exit(1);
    }
    if (r.value().type == MsgType::kError) {
      std::fprintf(stderr, "%s wire error: %s (%s)\n", what,
                   WireErrorName(r.value().error),
                   r.value().message.c_str());
      std::exit(1);
    }
    return r.value();
  };

  const NetResponse open =
      check("open", client.OpenSession("demo", ProgramFingerprint(program)));
  std::printf("opened session: %llu atoms, %llu clauses, %llu components, "
              "cost %.4f\n",
              (unsigned long long)open.num_atoms,
              (unsigned long long)open.num_clauses,
              (unsigned long long)open.num_components, open.map_cost);

  // Two deltas: relabel one paper, bridge two clusters.
  std::vector<EvidenceDelta> deltas(2);
  GroundAtom some_label;
  for (const auto& [atom, truth] : evidence.entries()) {
    if (atom.pred == program.FindPredicate("cat").value() && truth) {
      some_label = atom;
      break;
    }
  }
  deltas[0].Retract(some_label);
  deltas[0].Assert(CatAtom(program, "P0", "Networking"), true);
  GroundAtom bridge;
  bridge.pred = program.FindPredicate("refers").value();
  bridge.args = {program.symbols().Find("P0"),
                 program.symbols().Find("P11")};
  deltas[1].Assert(bridge, true);

  EvidenceDb accumulated = evidence;
  double served_cost = 0.0;
  for (size_t i = 0; i < deltas.size(); ++i) {
    const NetResponse applied =
        check("delta", client.ApplyDelta("demo", deltas[i]));
    FoldDelta(deltas[i], &accumulated);
    served_cost = applied.map_cost;
    std::printf("delta %zu: seq %llu, %llu/%llu components re-searched, "
                "%llu flips, cost %.4f\n",
                i, (unsigned long long)applied.seq,
                (unsigned long long)applied.components_dirty,
                (unsigned long long)applied.components_total,
                (unsigned long long)applied.flips, applied.map_cost);
  }

  const NetResponse marginals =
      check("marginals", client.QueryMarginals("demo", "cat"));
  std::printf("marginals: %zu cat atoms tracked\n",
              marginals.marginals.size());
  if (marginals.marginals.empty()) {
    std::fprintf(stderr, "expected nonempty marginals\n");
    return 1;
  }

  const NetResponse map = check("map", client.QueryMap("demo", "cat"));
  std::printf("MAP: cost %.4f, %zu true cat atoms\n", map.map_cost,
              map.atoms.size());
  if (map.map_cost != served_cost) {
    std::fprintf(stderr, "MAP query cost %.6f != last delta cost %.6f\n",
                 map.map_cost, served_cost);
    return 1;
  }

  // Equivalence: a from-scratch run over the accumulated evidence.
  EngineOptions eopts;
  eopts.search_mode = SearchMode::kComponentAware;
  eopts.grounding.lazy_closure = false;  // session grounding semantics
  eopts.total_flips = 80000;
  TuffyEngine engine(program, accumulated, eopts);
  auto fresh = engine.Run();
  if (!fresh.ok()) {
    std::fprintf(stderr, "fresh run: %s\n",
                 fresh.status().ToString().c_str());
    return 1;
  }
  std::printf("fresh cost %.4f vs served %.4f\n", fresh.value().total_cost,
              served_cost);
  if (std::fabs(fresh.value().total_cost - served_cost) > 1e-6) {
    std::fprintf(stderr, "served MAP cost diverged from fresh run\n");
    return 1;
  }

  check("close", client.CloseSession("demo"));
  client.Disconnect();
  server.Stop();
  std::printf("%s", server.MetricsReport().c_str());
  std::printf("net serving smoke OK\n");
  return 0;
}
