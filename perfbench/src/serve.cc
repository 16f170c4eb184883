// Serving path: an in-process net::Server on loopback with durable
// sessions, driven by a closed loop of client connections. Every cycle is
// one ApplyDelta and one QueryMap of the workload's query predicate.
// serve_rc_wire's end-to-end run measures this loop with the registry
// off. A traced run (on any workload) measures it with the registry on
// and then feeds the same stream to an in-process InferenceSession pair
// (untraced / traced), whose DeltaTraces give the serve and durability
// layers.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <malloc.h>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/inference_session.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using tuffy::Client;
using tuffy::GroundAtom;
using tuffy::MsgType;
using tuffy::NetRequest;
using tuffy::NetResponse;

/// Attempts per request; only retryable refusals (kOverloaded, ...) are
/// retried.
constexpr int kMaxAttempts = 8;
/// Server deployments (start + session opens) per end-to-end run.
constexpr int kDeployReps = 5;

/// One client's delta stream, in pairs: every completed pair leaves the
/// evidence as it started, so the accumulated evidence at a pair
/// boundary is the initial evidence. On serve_rc_wire pair k relabels
/// one labeled paper to a different category and restores its label; on
/// the batch inputs it retracts one fact of the largest evidence
/// relation (LP's publications, IE's tokens) and asserts it again.
class DeltaStream {
 public:
  DeltaStream(const Input& input, const std::string& workload, uint64_t seed,
              int client)
      : rng_(tuffy::DeriveSeed(seed, 0x72656c6162656cull + client)) {
    if (workload == kRc) {
      const tuffy::PredicateId cat =
          input.program.FindPredicate("cat").value();
      for (const auto& [atom, truth] : input.evidence.entries()) {
        if (atom.pred == cat && truth) facts_.push_back(atom);
      }
      categories_ = input.program.symbols().Domain("category");
    } else {
      std::map<tuffy::PredicateId, size_t> sizes;
      for (const auto& [atom, truth] : input.evidence.entries()) {
        if (truth) ++sizes[atom.pred];
      }
      tuffy::PredicateId largest = 0;
      size_t largest_n = 0;
      for (const auto& [pred, n] : sizes) {
        if (n > largest_n) {
          largest = pred;
          largest_n = n;
        }
      }
      for (const auto& [atom, truth] : input.evidence.entries()) {
        if (atom.pred == largest && truth) facts_.push_back(atom);
      }
    }
    std::sort(facts_.begin(), facts_.end(),
              [](const GroundAtom& a, const GroundAtom& b) {
                return a.args < b.args;
              });
  }

  bool usable() const {
    return !facts_.empty() && (relabel() ? categories_.size() > 1 : true);
  }

  tuffy::EvidenceDelta Next() {
    tuffy::EvidenceDelta delta;
    if (!restore_) {
      from_ = facts_[rng_.Uniform(facts_.size())];
      if (relabel()) {
        tuffy::ConstantId c =
            categories_[rng_.Uniform(categories_.size() - 1)];
        if (c == from_.args[1]) c = categories_.back();
        to_ = from_;
        to_.args[1] = c;
        delta.Retract(from_);
        delta.Assert(to_, true);
      } else {
        delta.Retract(from_);
      }
    } else if (relabel()) {
      delta.Retract(to_);
      delta.Assert(from_, true);
    } else {
      delta.Assert(from_, true);
    }
    restore_ = !restore_;
    return delta;
  }

 private:
  bool relabel() const { return !categories_.empty(); }

  std::vector<GroundAtom> facts_;
  std::vector<tuffy::ConstantId> categories_;  // relabel streams only
  tuffy::Rng rng_;
  bool restore_ = false;
  GroundAtom from_;
  GroundAtom to_;
};

/// What one client thread observed.
struct ClientLog {
  std::vector<double> delta_ms;
  std::vector<double> query_ms;
  std::vector<double> query_reply_bytes;
  uint64_t deltas_ok = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  uint64_t overloaded = 0;
  double final_cost = 0.0;
  std::vector<GroundAtom> final_atoms;
  std::string first_error;
};

void Fail(ClientLog* log, const std::string& what) {
  ++log->failed;
  if (log->first_error.empty()) log->first_error = what;
}

/// Call, retrying retryable refusals with a short linear backoff.
tuffy::Result<NetResponse> CallRetrying(Client* client, const NetRequest& req,
                                        ClientLog* log) {
  for (int attempt = 1;; ++attempt) {
    auto r = client->Call(req);
    if (!r.ok() || r.value().type != MsgType::kError ||
        !r.value().retryable || attempt == kMaxAttempts) {
      return r;
    }
    ++log->retries;
    if (r.value().error == tuffy::WireError::kOverloaded) ++log->overloaded;
    std::this_thread::sleep_for(std::chrono::milliseconds(attempt));
  }
}

std::string SessionName(int client) { return "c" + std::to_string(client); }

tuffy::ServerOptions MakeServerOptions(const std::string& workload,
                                       const std::string& root) {
  tuffy::ServerOptions opts;
  opts.session = ServeSessionOptions(workload);
  opts.num_workers = kServeWorkers;
  opts.durability_root = root;
  opts.snapshot_every = kSnapshotEvery;
  opts.wal_fsync = true;
  return opts;
}

/// The options a server-opened session runs under, for Recover.
tuffy::SessionOptions DurableSessionOptions(const std::string& workload,
                                            const std::string& wal_dir) {
  tuffy::SessionOptions o = ServeSessionOptions(workload);
  o.wal_dir = wal_dir;
  o.snapshot_every = kSnapshotEvery;
  o.wal_fsync = true;
  return o;
}

/// A started server with one connected client and open session per
/// client slot.
struct Deployment {
  std::string root;
  std::unique_ptr<tuffy::Server> server;
  std::vector<Client> clients;
};

bool Deploy(const Input& input, const std::string& workload,
            const std::string& root, Deployment* out) {
  std::error_code ec;
  fs::remove_all(root, ec);
  fs::create_directories(root, ec);
  out->root = root;
  out->server = std::make_unique<tuffy::Server>(
      input.program, input.evidence, MakeServerOptions(workload, root));
  tuffy::Status st = out->server->Start();
  if (!st.ok()) {
    std::fprintf(stderr, "server start: %s\n", st.ToString().c_str());
    return false;
  }
  out->clients = std::vector<Client>(kServeClients);
  for (int c = 0; c < kServeClients; ++c) {
    st = out->clients[c].Connect("127.0.0.1", out->server->port());
    if (!st.ok()) {
      std::fprintf(stderr, "connect: %s\n", st.ToString().c_str());
      return false;
    }
    auto open = out->clients[c].OpenSession(SessionName(c));
    if (!open.ok() || open.value().type != MsgType::kOpenReply) {
      std::fprintf(stderr, "open session %d failed\n", c);
      return false;
    }
  }
  return true;
}

void Teardown(Deployment* d) {
  d->clients.clear();
  d->server.reset();  // stops the loop, drains workers, closes sessions
  std::error_code ec;
  fs::remove_all(d->root, ec);
}

/// The closed loop of one client: delta pairs until the phase ends,
/// timing every ApplyDelta and QueryMap.
void ClientLoop(Client* client, int c, DeltaStream stream,
                const std::string& predicate, const tuffy::Timer& phase,
                double seconds, bool trace, ClientLog* log) {
  const std::string session = SessionName(c);
  uint64_t last_seq = 0;
  const double miss_ms = seconds * 1e3;  // a failed op misses any limit
  while (phase.ElapsedSeconds() < seconds) {
    for (int half = 0; half < 2; ++half) {
      NetRequest req;
      req.type = MsgType::kApplyDelta;
      req.session = session;
      req.delta = stream.Next();
      tuffy::Timer t;
      auto r = CallRetrying(client, req, log);
      double ms = t.ElapsedMillis();
      ++log->attempted;
      if (!r.ok()) {
        Fail(log, "delta transport: " + r.status().ToString());
        log->delta_ms.push_back(miss_ms);
        return;  // the connection is unusable
      }
      const NetResponse& resp = r.value();
      if (resp.type != MsgType::kDeltaReply) {
        Fail(log, "delta refused: " + resp.message);
        ms = miss_ms;
      } else if (resp.seq <= last_seq) {
        Fail(log, "delta reply seq did not increase");
        ms = miss_ms;
      } else {
        last_seq = resp.seq;
        log->final_cost = resp.map_cost;
        ++log->deltas_ok;
      }
      log->delta_ms.push_back(ms);

      NetRequest q;
      q.type = MsgType::kQueryMap;
      q.session = session;
      q.predicate = predicate;
      t.Restart();
      auto qr = CallRetrying(client, q, log);
      ms = t.ElapsedMillis();
      ++log->attempted;
      if (!qr.ok()) {
        Fail(log, "query transport: " + qr.status().ToString());
        log->query_ms.push_back(miss_ms);
        return;
      }
      if (qr.value().type != MsgType::kMapReply ||
          qr.value().map_cost != log->final_cost) {
        Fail(log, "query reply does not match the last delta's MAP state");
        ms = miss_ms;
      }
      log->query_ms.push_back(ms);
      if (trace) {
        log->query_reply_bytes.push_back(static_cast<double>(
            tuffy::EncodeFrame(tuffy::EncodeResponse(qr.value())).size()));
      }
      log->final_atoms = std::move(qr.value().atoms);
    }
  }
}

/// What the clients of one closed-loop phase observed, merged.
struct WirePhase {
  std::vector<ClientLog> logs;
  std::vector<double> delta_ms, query_ms, reply_bytes, final_costs;
  std::vector<double> rss_mb;  // peak RSS per one-second window
  uint64_t deltas_ok = 0, retries = 0, overloaded = 0;
  double elapsed_s = 0.0;
  /// Registry windows over the phase (filled only with the registry on).
  std::map<std::string, double> before, after;
  tuffy::HistogramSnapshot wire, wait;
};

/// Runs every client of `live` in a closed loop for `seconds`, with the
/// metrics registry on or off, and counts their operations in `report`.
WirePhase RunWire(const RunConfig& cfg, const Input& input, Deployment* live,
                  double seconds, bool registry, Report* report) {
  WirePhase out;
  tuffy::SetMetricsEnabled(registry);
  tuffy::MetricsRegistry& reg = tuffy::MetricsRegistry::Global();
  out.before = RegistryValues();
  const tuffy::HistogramSnapshot wire0 =
      reg.GetHistogram("net.delta.wire.seconds")->Snapshot();
  const tuffy::HistogramSnapshot wait0 =
      reg.GetHistogram("net.lane.queue.wait.seconds")->Snapshot();
  malloc_trim(0);  // return set-up's freed heap before measuring RSS
  ResetPeakRss();
  out.logs.resize(kServeClients);
  const std::string predicate = QueryPredicate(cfg.workload);
  tuffy::Timer phase;
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kServeClients; ++c) {
      threads.emplace_back(ClientLoop, &live->clients[c], c,
                           DeltaStream(input, cfg.workload, cfg.seed, c),
                           std::cref(predicate), std::cref(phase), seconds,
                           registry, &out.logs[c]);
    }
    for (double left = seconds; left > 0;
         left = seconds - phase.ElapsedSeconds()) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::min(1.0, left)));
      out.rss_mb.push_back(PeakRssMb());
      ResetPeakRss();
    }
    for (std::thread& t : threads) t.join();
  }
  out.elapsed_s = phase.ElapsedSeconds();
  out.after = RegistryValues();
  out.wire = reg.GetHistogram("net.delta.wire.seconds")->Snapshot() - wire0;
  out.wait =
      reg.GetHistogram("net.lane.queue.wait.seconds")->Snapshot() - wait0;
  tuffy::SetMetricsEnabled(false);

  for (const ClientLog& log : out.logs) {
    out.delta_ms.insert(out.delta_ms.end(), log.delta_ms.begin(),
                        log.delta_ms.end());
    out.query_ms.insert(out.query_ms.end(), log.query_ms.begin(),
                        log.query_ms.end());
    out.reply_bytes.insert(out.reply_bytes.end(),
                           log.query_reply_bytes.begin(),
                           log.query_reply_bytes.end());
    out.final_costs.push_back(log.final_cost);
    out.deltas_ok += log.deltas_ok;
    out.retries += log.retries;
    out.overloaded += log.overloaded;
    report->Ops(log.attempted, log.failed, log.first_error);
  }
  std::fprintf(stderr,
               "%s serving: %zu delta samples, %zu query samples in %.3f s\n",
               cfg.workload.c_str(), out.delta_ms.size(), out.query_ms.size(),
               out.elapsed_s);
  return out;
}

std::vector<std::vector<int32_t>> SortedArgs(
    const std::vector<GroundAtom>& atoms) {
  std::vector<std::vector<int32_t>> out;
  for (const GroundAtom& a : atoms) out.push_back(a.args);
  std::sort(out.begin(), out.end());
  return out;
}

bool SameCost(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

/// Output checks after a phase, then tears `live` down. (a) On
/// serve_rc_wire, every session's final cost equals a from-scratch
/// exhaustive-grounding Run over its accumulated evidence, which the
/// pair-complete stream has restored to the initial evidence. (On the
/// batch inputs a warm re-search of a restored component need not land
/// on the cold start's optimum, so the probe skips this check.)
/// (b) Recovering session c0 from its WAL directory reproduces its final
/// cost and query-predicate truth.
void CheckSessions(const RunConfig& cfg, const Input& input, Deployment* live,
                   const WirePhase& phase, Report* report) {
  if (cfg.workload == kRc) {
    tuffy::EngineOptions fresh_opts;
    fresh_opts.search_mode = tuffy::SearchMode::kComponentAware;
    fresh_opts.grounding.lazy_closure = false;
    fresh_opts.total_flips = WorkloadFlips(cfg.workload);
    fresh_opts.seed = kEngineSeed;
    auto fresh =
        tuffy::TuffyEngine(input.program, input.evidence, fresh_opts).Run();
    report->Check(fresh.ok(), "from-scratch Run failed");
    for (const ClientLog& log : phase.logs) {
      report->Check(
          fresh.ok() && SameCost(log.final_cost, fresh.value().total_cost),
          "session cost differs from the from-scratch Run");
    }
  }

  const std::string wal_dir = live->root + "/" + SessionName(0);
  live->clients.clear();
  live->server.reset();
  {
    auto recovered = tuffy::InferenceSession::Recover(
        input.program, DurableSessionOptions(cfg.workload, wal_dir));
    bool recover_ok = recovered.ok();
    if (recover_ok) {
      const tuffy::InferenceSession& s = *recovered.value();
      auto atoms = tuffy::ExtractTrueAtoms(input.program, s.atoms(),
                                           s.truth(),
                                           QueryPredicate(cfg.workload));
      recover_ok = s.map_cost() == phase.logs[0].final_cost && atoms.ok() &&
                   SortedArgs(atoms.value()) ==
                       SortedArgs(phase.logs[0].final_atoms);
    }
    report->Check(recover_ok, "Recover does not reproduce session c0");
  }
  Teardown(live);
}

/// The same stream fed to an untraced and a traced in-process durable
/// session, delta by delta. Their WAL directories go with the run's
/// scratch directory. Returns the traced ApplyDelta overhead.
double InProcessLayers(const RunConfig& cfg, const Input& input, int deltas,
                       Report* report) {
  const std::string dir_a = cfg.dir + "/inproc-plain";
  const std::string dir_b = cfg.dir + "/inproc-traced";
  tuffy::InferenceSession plain(input.program,
                                DurableSessionOptions(cfg.workload, dir_a));
  tuffy::InferenceSession traced(input.program,
                                 DurableSessionOptions(cfg.workload, dir_b));
  tuffy::SetMetricsEnabled(false);
  tuffy::Status st = plain.Open(input.evidence);
  report->Op(st.ok(), "in-process open: " + st.ToString());
  tuffy::SetMetricsEnabled(true);
  tuffy::Timer open_timer;
  st = traced.Open(input.evidence);
  const double open_s = open_timer.ElapsedSeconds();
  report->Op(st.ok(), "in-process traced open: " + st.ToString());
  tuffy::SetMetricsEnabled(false);
  if (!st.ok()) return 0.0;
  const tuffy::SessionStats stats0 = traced.stats();

  DeltaStream stream(input, cfg.workload, cfg.seed, 0);
  std::vector<double> plain_ms, traced_ms, apply_ms, ground_ms, search_ms;
  std::vector<double> append_ms, fsync_ms, snapshot_ms, other_ms;
  double dirty_frac = 0, flips = 0, bindings = 0, maintenance = 0;
  for (int d = 0; d < deltas; ++d) {
    const tuffy::EvidenceDelta delta = stream.Next();
    tuffy::SetMetricsEnabled(false);
    tuffy::Timer t;
    auto a = plain.ApplyDelta(delta);
    plain_ms.push_back(t.ElapsedMillis());
    tuffy::SetMetricsEnabled(true);
    tuffy::TraceBuilder spans("inproc");
    t.Restart();
    auto b = traced.ApplyDelta(delta, &spans);
    traced_ms.push_back(t.ElapsedMillis());
    tuffy::SetMetricsEnabled(false);
    const bool ok = a.ok() && b.ok() &&
                    a.value().map_cost == b.value().map_cost &&
                    plain.truth() == traced.truth();
    report->Op(ok, "traced session diverged from the untraced one");
    if (!ok) break;
    const tuffy::DeltaApplyResult& r = b.value();
    dirty_frac += r.components_total == 0
                      ? 0.0
                      : static_cast<double>(r.components_dirty) /
                            static_cast<double>(r.components_total);
    flips += static_cast<double>(r.flips);
    bindings += static_cast<double>(r.edits.bindings_resolved);
    maintenance += static_cast<double>(r.edits.maintenance_rows);
    const std::vector<tuffy::DeltaTrace> traces = traced.RecentTraces();
    if (traces.empty()) continue;
    // The root span's time outside its direct children (component
    // re-detection, bookkeeping) is serve.other_ms.
    double other = 0.0;
    for (const tuffy::Span& s : traces.back().spans) {
      const double ms = s.seconds() * 1e3;
      if (s.parent < 0) other += ms;
      if (s.parent == 0) other -= ms;
      if (s.name == "apply_delta") apply_ms.push_back(ms);
      if (s.name == "ground.delta") ground_ms.push_back(ms);
      if (s.name == "search") search_ms.push_back(ms);
      if (s.name == "wal.append") append_ms.push_back(ms);
      if (s.name == "wal.fsync") fsync_ms.push_back(ms);
      if (s.name == "snapshot.write") snapshot_ms.push_back(ms);
    }
    other_ms.push_back(other);
  }
  const double n = static_cast<double>(std::max<size_t>(1, apply_ms.size()));
  const tuffy::SessionStats& stats = traced.stats();
  const double researched = static_cast<double>(
      stats.components_researched - stats0.components_researched);
  report->Add("serve.open_s", open_s, "s");
  report->Add("serve.apply_ms", Median(apply_ms), "ms");
  report->Add("serve.ground_delta_ms", Median(ground_ms), "ms");
  report->Add("serve.search_ms", Median(search_ms), "ms");
  report->Add("serve.other_ms", Median(other_ms), "ms");
  report->Add("serve.dirty_frac", dirty_frac / n, "ratio");
  report->Add("serve.flips_per_delta", flips / n, "count");
  report->Add("serve.bindings_per_delta", bindings / n, "count");
  report->Add("serve.maintenance_rows_per_delta", maintenance / n, "count");
  report->Add("serve.exact_frac",
              researched > 0 ? static_cast<double>(stats.components_exact -
                                                   stats0.components_exact) /
                                   researched
                             : 0.0,
              "ratio");
  report->Add("durability.wal_append_ms", Median(append_ms), "ms");
  report->Add("durability.wal_fsync_ms", Median(fsync_ms), "ms");
  report->Add("durability.snapshot_ms", Median(snapshot_ms), "ms");
  report->Add("durability.snapshots", static_cast<double>(snapshot_ms.size()),
              "count");
  return Median(traced_ms) / Median(plain_ms) - 1.0;
}

}  // namespace

double ServingLayers(const RunConfig& cfg, const Input& input, double seconds,
                     int inproc_deltas, Report* report) {
  Deployment live;
  if (!Deploy(input, cfg.workload, cfg.dir + "/wal-traced", &live)) {
    report->Op(false, "server deployment failed");
    Teardown(&live);
    return 0.0;
  }
  const WirePhase phase = RunWire(cfg, input, &live, seconds, true, report);
  const double server_ms = phase.wire.Percentile(0.5) * 1e3;
  report->Add("net.server_delta_ms", server_ms, "ms");
  report->Add("net.wire_overhead_ms", Median(phase.delta_ms) - server_ms,
              "ms");
  report->Add("net.lane_wait_ms", phase.wait.Percentile(0.5) * 1e3, "ms");
  report->Add("net.query_p50_ms", Median(phase.query_ms), "ms");
  report->Add("net.query_reply_bytes", Median(phase.reply_bytes), "B");
  report->Add("net.retries", static_cast<double>(phase.retries), "count");
  report->Add("net.overloaded", static_cast<double>(phase.overloaded),
              "count");
  const double appends =
      RegistryDelta(phase.before, phase.after, "wal.append.count");
  report->Add("durability.wal_bytes_per_delta",
              appends > 0 ? RegistryDelta(phase.before, phase.after,
                                          "wal.append.bytes") /
                                appends
                          : 0.0,
              "B");
  CheckSessions(cfg, input, &live, phase, report);
  return InProcessLayers(cfg, input, inproc_deltas, report);
}

int RunServe(const RunConfig& cfg) {
  Report report;
  ParseTimes times;
  std::unique_ptr<Input> input = ParseInput(cfg.dir, &times);
  if (input == nullptr) return 1;
  tuffy::SetMetricsEnabled(false);
  if (!DeltaStream(*input, cfg.workload, cfg.seed, 0).usable()) {
    std::fprintf(stderr, "the input has no evidence to change\n");
    return 1;
  }

  // Set-up: parse (timed above), then start the server and open every
  // session. Deployment is repeated; the last one serves the measured
  // phase. setup_s = median parse + median deployment.
  Deployment live;
  std::vector<double> deploy_s;
  for (int rep = 0; rep < kDeployReps; ++rep) {
    if (live.server != nullptr) Teardown(&live);
    tuffy::Timer t;
    const bool ok = Deploy(*input, cfg.workload,
                           cfg.dir + "/wal-" + std::to_string(rep), &live);
    deploy_s.push_back(t.ElapsedSeconds());
    if (!ok) {
      Teardown(&live);
      return 1;
    }
  }

  const WirePhase phase =
      RunWire(cfg, *input, &live, cfg.seconds, false, &report);
  CheckSessions(cfg, *input, &live, phase, &report);
  report.Add("setup_s", Median(times.total_s) + Median(deploy_s), "s");
  report.Add("peak_rss_mb", Median(phase.rss_mb), "MB");
  report.Add("map_cost", Median(phase.final_costs), "cost");
  report.Add("ops_per_s",
             static_cast<double>(phase.deltas_ok) / phase.elapsed_s, "1/s");
  report.Add("op_p50_ms", Quantile(phase.delta_ms, 0.50), "ms");
  report.Add("op_p99_ms", Quantile(phase.delta_ms, 0.99), "ms");
  report.Check(phase.delta_ms.size() >= 1000,
               "too few delta samples for a p99 with 10 beyond it");
  report.Print();
  return 0;
}

}  // namespace perfbench
