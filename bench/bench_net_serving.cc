// Network serving benchmark: N ∈ {1, 8, 64} concurrent clients, each
// with its own session, streaming relabel deltas through the net/ front
// end on loopback, versus the same workload driven straight into an
// in-process SessionManager. Every client runs the identical delta
// sequence, so all sessions must converge to the same final MAP cost —
// which is also checked against one from-scratch engine run over the
// accumulated evidence (the wire must not change inference).
//
// A final "replicated" row runs the stream against a durable primary
// with a hot standby tailing its WAL: each delta must reach the
// follower and drain repl.lag.records back to 0 before the next one.
//
// BENCH_JSON schema (one line per system × client count):
//   {"bench":"net_serving","system":"net"|"inproc"|"replicated","clients":N,
//    "deltas_per_sec":...,"p50_ms":...,"p99_ms":...,
//    "total_deltas":...,"seconds":...,"final_cost":...,
//    "fresh_cost":...}
// p50/p99 are client-observed per-delta latencies (for the net rows
// that includes framing, loopback, queueing, and the reply).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/follower_manager.h"
#include "serve/session_manager.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace tuffy;
using namespace tuffy::bench;

namespace {

constexpr uint64_t kFlips = 60000;
constexpr int kDeltasPerClient = 16;
const std::vector<int> kClientCounts = {1, 8, 64};

Dataset NetRc() {
  RcParams p;
  p.num_clusters = 4;
  p.papers_per_cluster = 6;
  // 6 categories so both relabel targets ("Networking", "Theory") exist
  // in the interned domain.
  p.num_categories = 6;
  p.labeled_fraction = 0.6;
  auto r = MakeRcDataset(p);
  if (!r.ok()) {
    std::fprintf(stderr, "RC generation failed: %s\n",
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return r.TakeValue();
}

SessionOptions BenchSessionOptions() {
  SessionOptions opts;
  opts.total_flips = kFlips;
  opts.seed = 42;
  return opts;
}

/// The relabel stream every client applies, in order. Identical across
/// clients so every session ends in the same state.
std::vector<EvidenceDelta> MakeDeltas(const Dataset& ds,
                                      EvidenceDb* accumulated) {
  PredicateId cat = ds.program.FindPredicate("cat").value();
  std::vector<GroundAtom> labels;
  for (const auto& [atom, truth] : ds.evidence.entries()) {
    if (atom.pred == cat && truth) labels.push_back(atom);
  }
  ConstantId cat_a = ds.program.symbols().Find("Networking");
  ConstantId cat_b = ds.program.symbols().Find("Theory");
  if (cat_a < 0 || cat_b < 0) {
    std::fprintf(stderr, "relabel categories missing from the domain\n");
    std::exit(1);
  }
  Rng rng(7);
  std::vector<EvidenceDelta> deltas;
  for (int d = 0; d < kDeltasPerClient; ++d) {
    GroundAtom victim = labels[rng.Uniform(labels.size())];
    EvidenceDelta delta;
    delta.Retract(victim);
    GroundAtom relabeled = victim;
    relabeled.args[1] = relabeled.args[1] == cat_a ? cat_b : cat_a;
    delta.Assert(relabeled, true);
    deltas.push_back(delta);
    if (accumulated != nullptr) {
      accumulated->Remove(victim);
      accumulated->Add(relabeled, true);
    }
    labels[rng.Uniform(labels.size())] = relabeled;
  }
  return deltas;
}

struct RunResult {
  double seconds = 0.0;
  double final_cost = 0.0;
  bool cost_consistent = true;
  HistogramSnapshot latency;
};

void EmitRow(const char* system, int clients, const RunResult& r,
             double fresh_cost, const std::vector<MetricSample>& base) {
  const double total = static_cast<double>(clients) * kDeltasPerClient;
  BenchJson row("net_serving");
  row.Str("system", system)
      .Int("clients", static_cast<uint64_t>(clients))
      .Num("deltas_per_sec", total / r.seconds, 1)
      .Num("p50_ms", r.latency.Percentile(0.50) * 1e3, 3)
      .Num("p99_ms", r.latency.Percentile(0.99) * 1e3, 3)
      .Int("total_deltas", static_cast<uint64_t>(total))
      .Num("seconds", r.seconds)
      .Num("final_cost", r.final_cost)
      .Num("fresh_cost", fresh_cost)
      .Metrics(base)
      .Emit();
}

/// Drives `clients` concurrent sessions over the wire. Sessions are
/// opened before the clock starts; only the delta stream is timed.
RunResult RunNet(const Dataset& ds,
                 const std::vector<EvidenceDelta>& deltas, int clients) {
  ServerOptions opts;
  opts.session = BenchSessionOptions();
  opts.num_workers =
      std::max(2u, std::thread::hardware_concurrency());
  opts.max_queue = static_cast<size_t>(clients) * 2 + 16;
  Server server(ds.program, ds.evidence, opts);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start: %s\n", started.ToString().c_str());
    std::exit(1);
  }

  std::vector<Client> conns(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    Status st = conns[c].Connect("127.0.0.1", server.port());
    if (!st.ok()) {
      std::fprintf(stderr, "connect: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    auto open = conns[c].OpenSession("bench-" + std::to_string(c));
    if (!open.ok() || open.value().type != MsgType::kOpenReply) {
      std::fprintf(stderr, "open %d failed\n", c);
      std::exit(1);
    }
  }

  RunResult result;
  // Histogram records are lock-free, so every client thread shares one.
  Histogram latency;
  std::mutex mu;
  Timer timer;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      double cost = 0.0;
      bool ok = true;
      const std::string session = "bench-" + std::to_string(c);
      // 64 clients can shed for a while; give retries a deep budget so
      // the run measures throughput, not a retry-exhaustion failure.
      RetryPolicy rp;
      rp.max_attempts = 64;
      for (const EvidenceDelta& delta : deltas) {
        NetRequest req;
        req.type = MsgType::kApplyDelta;
        req.session = session;
        req.delta = delta;
        Timer t;
        // Overload shedding is retryable by contract; CallWithRetry's
        // jittered backoff lands every delta (a retryable refusal never
        // touched session state, so per-session ordering still holds).
        auto r = conns[c].CallWithRetry(req, rp);
        if (!r.ok() || r.value().type != MsgType::kDeltaReply) {
          ok = false;
          break;
        }
        latency.RecordAlways(t.ElapsedSeconds());
        cost = r.value().map_cost;
      }
      std::lock_guard<std::mutex> lock(mu);
      if (!ok) {
        result.cost_consistent = false;
      } else if (result.final_cost == 0.0) {
        result.final_cost = cost;
      } else if (std::fabs(result.final_cost - cost) > 1e-6) {
        result.cost_consistent = false;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.seconds = timer.ElapsedSeconds();
  result.latency = latency.Snapshot();

  ServerMetrics m = server.metrics();
  std::printf("  net %2d clients: server p50 %.3f ms, p99 %.3f ms, "
              "queue peak %zu, %llu overloaded\n",
              clients, m.delta_p50_ms, m.delta_p99_ms, m.queue_peak,
              (unsigned long long)m.overloaded);
  server.Stop();
  return result;
}

/// The same workload without the wire: N threads calling straight into
/// a SessionManager.
RunResult RunInProcess(const Dataset& ds,
                       const std::vector<EvidenceDelta>& deltas,
                       int clients) {
  SessionManagerOptions mopts;
  mopts.num_threads = 1;
  SessionManager manager(mopts);
  for (int c = 0; c < clients; ++c) {
    auto open = manager.Open("bench-" + std::to_string(c), ds.program,
                             ds.evidence, BenchSessionOptions());
    if (!open.ok()) {
      std::fprintf(stderr, "inproc open %d: %s\n", c,
                   open.status().ToString().c_str());
      std::exit(1);
    }
  }

  RunResult result;
  Histogram latency;
  std::mutex mu;
  Timer timer;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      double cost = 0.0;
      bool ok = true;
      const std::string session = "bench-" + std::to_string(c);
      for (const EvidenceDelta& delta : deltas) {
        Timer t;
        auto r = manager.ApplyDelta(session, delta);
        if (!r.ok()) {
          ok = false;
          break;
        }
        latency.RecordAlways(t.ElapsedSeconds());
        cost = r.value().map_cost;
      }
      std::lock_guard<std::mutex> lock(mu);
      if (!ok) {
        result.cost_consistent = false;
      } else if (result.final_cost == 0.0) {
        result.final_cost = cost;
      } else if (std::fabs(result.final_cost - cost) > 1e-6) {
        result.cost_consistent = false;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.seconds = timer.ElapsedSeconds();
  result.latency = latency.Snapshot();
  return result;
}

/// Replication lesion: a durable single-session primary with one
/// in-process hot standby tailing its WAL over loopback. One client
/// streams the delta sequence through the wire (CallWithRetry); after
/// every delta the bench waits for the follower to reach that position
/// and for the repl.lag.records gauge to drain back to 0 — the
/// "replication keeps up with the write rate" check from the issue.
/// The follower's replicated state must land on the same MAP cost as
/// the primary's reply (and the caller checks both against fresh_cost).
RunResult RunReplication(const Dataset& ds,
                         const std::vector<EvidenceDelta>& deltas) {
  const ScratchDir proot("bench_net_repl_p");
  const ScratchDir froot("bench_net_repl_f");
  if (!proot.ok() || !froot.ok()) {
    std::fprintf(stderr, "mkdtemp failed\n");
    std::exit(1);
  }

  ServerOptions opts;
  opts.session = BenchSessionOptions();
  opts.num_workers = 2;
  opts.durability_root = proot.path();
  opts.wal_fsync = false;  // lag drain is the subject, not fsync latency
  opts.repl_heartbeat_seconds = 0.05;
  Server server(ds.program, ds.evidence, opts);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "repl server start: %s\n",
                 started.ToString().c_str());
    std::exit(1);
  }

  const std::string session = "bench-repl";
  Client client;
  if (!client.Connect("127.0.0.1", server.port()).ok()) {
    std::fprintf(stderr, "repl connect failed\n");
    std::exit(1);
  }
  auto open = client.OpenSession(session);
  if (!open.ok() || open.value().type != MsgType::kOpenReply) {
    std::fprintf(stderr, "repl open failed\n");
    std::exit(1);
  }

  FollowerOptions fopts;
  fopts.primary_host = "127.0.0.1";
  fopts.primary_port = server.port();
  fopts.session = session;
  fopts.session_options = BenchSessionOptions();
  fopts.session_options.wal_dir = froot.path() + "/" + session;
  fopts.session_options.wal_fsync = false;
  FollowerManager follower(ds.program, fopts);
  Status fstart = follower.Start();
  if (!fstart.ok()) {
    std::fprintf(stderr, "follower start: %s\n", fstart.ToString().c_str());
    std::exit(1);
  }

  Gauge* lag = MetricsRegistry::Global().GetGauge("repl.lag.records");
  auto await = [&](const char* what, auto pred) {
    Timer t;
    while (!pred()) {
      if (t.ElapsedSeconds() > 30.0) {
        std::fprintf(stderr, "FAIL: replication never %s (position %llu, "
                     "lag %lld)\n",
                     what, (unsigned long long)follower.position(),
                     (long long)lag->Value());
        std::exit(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };

  RunResult result;
  Histogram latency;
  Timer timer;
  double primary_cost = 0.0;
  uint64_t seq = 0;
  for (const EvidenceDelta& delta : deltas) {
    NetRequest req;
    req.type = MsgType::kApplyDelta;
    req.session = session;
    req.delta = delta;
    Timer t;
    auto r = client.CallWithRetry(req);
    if (!r.ok() || r.value().type != MsgType::kDeltaReply) {
      std::fprintf(stderr, "repl delta failed\n");
      std::exit(1);
    }
    primary_cost = r.value().map_cost;
    ++seq;
    // The follower must catch up to this delta, and the primary's lag
    // gauge must drain to 0 (it refreshes on pump and on ack).
    await("caught up", [&] { return follower.position() >= seq; });
    await("drained its lag", [&] { return lag->Value() == 0; });
    latency.RecordAlways(t.ElapsedSeconds());
  }
  result.seconds = timer.ElapsedSeconds();
  result.latency = latency.Snapshot();

  double follower_cost = 0.0;
  {
    std::lock_guard<std::mutex> lock(follower.replica()->mu());
    InferenceSession* s = follower.replica()->session();
    if (s != nullptr) follower_cost = s->map_cost();
  }
  result.final_cost = follower_cost;
  result.cost_consistent = std::fabs(follower_cost - primary_cost) <= 1e-6;
  if (!result.cost_consistent) {
    std::fprintf(stderr,
                 "FAIL: follower cost %.6f != primary cost %.6f\n",
                 follower_cost, primary_cost);
  }
  std::printf("  replicated: follower matched the primary after each of "
              "%llu deltas (lag drained to 0 every time)\n",
              (unsigned long long)seq);
  follower.Stop();
  server.Stop();
  return result;
}

}  // namespace

int main() {
  PrintHeader("Net serving: concurrent wire clients vs in-process manager");
  Dataset ds = NetRc();
  EvidenceDb accumulated = ds.evidence;
  std::vector<EvidenceDelta> deltas = MakeDeltas(ds, &accumulated);

  // The single source of truth every session must land on.
  EngineOptions eopts;
  eopts.search_mode = SearchMode::kComponentAware;
  eopts.grounding.lazy_closure = false;
  eopts.total_flips = kFlips;
  eopts.seed = 42;
  TuffyEngine engine(ds.program, accumulated, eopts);
  auto fresh = engine.Run();
  if (!fresh.ok()) {
    std::fprintf(stderr, "fresh run failed: %s\n",
                 fresh.status().ToString().c_str());
    return 1;
  }
  const double fresh_cost = fresh.value().total_cost;
  std::printf("fresh MAP cost over final evidence: %.4f\n", fresh_cost);

  bool all_match = true;
  for (int clients : kClientCounts) {
    std::vector<MetricSample> net_base = MetricsBaseline();
    RunResult net = RunNet(ds, deltas, clients);
    EmitRow("net", clients, net, fresh_cost, net_base);
    std::vector<MetricSample> inproc_base = MetricsBaseline();
    RunResult inproc = RunInProcess(ds, deltas, clients);
    EmitRow("inproc", clients, inproc, fresh_cost, inproc_base);
    for (const RunResult* r : {&net, &inproc}) {
      if (!r->cost_consistent ||
          std::fabs(r->final_cost - fresh_cost) > 1e-6) {
        all_match = false;
      }
    }
    const double ratio =
        (net.seconds > 0 && inproc.seconds > 0)
            ? inproc.seconds / net.seconds
            : 0.0;
    std::printf("  %2d clients: wire throughput is %.2fx in-process\n",
                clients, ratio);
  }

  // Replication lesion: the same stream against a durable primary with a
  // hot standby attached — every delta must replicate, the lag gauge
  // must drain to 0, and the follower must land on the fresh MAP cost.
  std::vector<MetricSample> repl_base = MetricsBaseline();
  RunResult repl = RunReplication(ds, deltas);
  EmitRow("replicated", 1, repl, fresh_cost, repl_base);
  if (!repl.cost_consistent ||
      std::fabs(repl.final_cost - fresh_cost) > 1e-6) {
    all_match = false;
  }

  if (!all_match) {
    std::fprintf(stderr,
                 "FAIL: a session's final MAP cost diverged from the "
                 "from-scratch run\n");
    return 1;
  }
  std::printf("all sessions converged to the fresh MAP cost\n");
  return 0;
}
