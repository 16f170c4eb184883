// Replication matrix: cold snapshot shipping, warm WAL catch-up from
// every position, stream cuts at each replication fault point with
// reconnect-and-resume, operator promotion with a bit-identical
// continuation, double-promote refusal, and the not-primary wire error
// driving Client::CallWithRetry across a failover.
//
// The bit-identity oracle is the same one durability_test uses: a
// replica that applied the stream through replay must equal — atom by
// atom, clause by clause, weight bit pattern by weight bit pattern — a
// never-replicated twin that applied the same deltas directly.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mln/parser.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "repl/repl_protocol.h"
#include "serve/follower_manager.h"
#include "serve/inference_session.h"
#include "temp_dir.h"
#include "util/fault_points.h"
#include "util/rng.h"

namespace tuffy {
namespace {

constexpr const char* kSession = "cli";

MlnProgram LinkProgram() {
  auto r = ParseProgram(
      "*link(node, node)\n"
      "label(node, cls)\n"
      "2 link(x, y), label(x, c) => label(y, c)\n"
      "1.5 label(x, c), label(y, c) => link(x, y)\n");
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

EvidenceDb InitialEvidence(const MlnProgram& program) {
  EvidenceDb evidence;
  evidence.Add(Atom(program, "link", {"n0", "n1"}), true);
  evidence.Add(Atom(program, "link", {"n1", "n2"}), true);
  evidence.Add(Atom(program, "label", {"n0", "A"}), true);
  evidence.Add(Atom(program, "label", {"n3", "B"}), true);
  return evidence;
}

std::vector<EvidenceDelta> DeltaStream(const MlnProgram& program) {
  std::vector<EvidenceDelta> deltas(4);
  deltas[0].Assert(Atom(program, "link", {"n2", "n3"}), true);
  deltas[0].Assert(Atom(program, "label", {"n2", "A"}), true);
  deltas[1].Retract(Atom(program, "link", {"n0", "n1"}));
  deltas[2].Assert(Atom(program, "link", {"n3", "n4"}), true);
  deltas[2].Assert(Atom(program, "label", {"n4", "B"}), true);
  deltas[2].Retract(Atom(program, "label", {"n0", "A"}));
  deltas[2].Assert(Atom(program, "link", {"n4", "n5"}), true);
  deltas[3].Assert(Atom(program, "label", {"n5", "A"}), true);
  return deltas;
}

SessionOptions BaseOptions() {
  SessionOptions opts;
  opts.total_flips = 20000;
  opts.seed = 11;
  return opts;
}

void ExpectBitIdentical(InferenceSession& got, InferenceSession& want) {
  ASSERT_EQ(got.atoms().num_atoms(), want.atoms().num_atoms());
  for (AtomId a = 0; a < want.atoms().num_atoms(); ++a) {
    EXPECT_EQ(got.atoms().atom(a).pred, want.atoms().atom(a).pred);
    EXPECT_EQ(got.atoms().atom(a).args, want.atoms().atom(a).args);
  }
  ASSERT_EQ(got.clauses().size(), want.clauses().size());
  for (size_t i = 0; i < want.clauses().size(); ++i) {
    EXPECT_EQ(got.clauses()[i].lits, want.clauses()[i].lits) << "clause " << i;
    EXPECT_EQ(got.clauses()[i].hard, want.clauses()[i].hard);
    EXPECT_EQ(std::memcmp(&got.clauses()[i].weight, &want.clauses()[i].weight,
                          sizeof(double)),
              0)
        << "clause " << i << " weight bits differ";
  }
  EXPECT_EQ(got.truth(), want.truth());
  EXPECT_EQ(got.map_cost(), want.map_cost());  // exact, not NEAR
  EXPECT_EQ(got.EvalCurrentCost(), want.EvalCurrentCost());
}

bool WaitFor(const std::function<bool()>& pred, double seconds = 20.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

class ReplTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultPoints::Global().Reset();
    program_ = LinkProgram();
    evidence_ = InitialEvidence(program_);
    deltas_ = DeltaStream(program_);
  }
  void TearDown() override { FaultPoints::Global().Reset(); }

  /// A fresh directory, removed with its tree when the test ends.
  std::string MakeTempDir(const std::string& tag) {
    temp_dirs_.push_back(std::make_unique<ScopedTempDir>("repl_" + tag));
    return temp_dirs_.back()->path();
  }

  /// A durable primary server plus one connected client with the test
  /// session open. Callable repeatedly (fresh root each time).
  void StartPrimary() {
    ServerOptions opts;
    opts.session = BaseOptions();
    opts.durability_root = MakeTempDir("primary");
    opts.wal_fsync = false;
    opts.repl_heartbeat_seconds = 0.05;
    server_ = std::make_unique<Server>(program_, evidence_, opts);
    ASSERT_TRUE(server_->Start().ok());
    client_.Disconnect();
    ASSERT_TRUE(client_.Connect("127.0.0.1", server_->port()).ok());
    auto open = client_.OpenSession(kSession);
    ASSERT_TRUE(open.ok());
    ASSERT_EQ(open.value().type, MsgType::kOpenReply);
  }

  void ApplyOnPrimary(size_t i) {
    auto r = client_.ApplyDelta(kSession, deltas_[i]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r.value().type, MsgType::kDeltaReply) << r.value().message;
  }

  /// A follower aimed at the current primary, with timeouts tightened
  /// so heartbeat loss and reconnect cycles resolve in test time.
  std::unique_ptr<FollowerManager> MakeFollower(const std::string& wal_dir) {
    FollowerOptions fopts;
    fopts.primary_host = "127.0.0.1";
    fopts.primary_port = server_->port();
    fopts.session = kSession;
    fopts.session_options = BaseOptions();
    fopts.session_options.wal_dir = wal_dir;
    fopts.session_options.wal_fsync = false;
    fopts.heartbeat_timeout_seconds = 0.4;
    fopts.reconnect_base_seconds = 0.02;
    fopts.reconnect_max_seconds = 0.2;
    return std::make_unique<FollowerManager>(program_, fopts);
  }

  /// The oracle: a never-replicated session that applied deltas [0, upto).
  std::unique_ptr<InferenceSession> Twin(size_t upto) {
    auto twin = std::make_unique<InferenceSession>(program_, BaseOptions());
    EXPECT_TRUE(twin->Open(evidence_).ok());
    for (size_t i = 0; i < upto; ++i) {
      EXPECT_TRUE(twin->ApplyDelta(deltas_[i]).ok());
    }
    return twin;
  }

  void ExpectReplicaMatches(FollowerManager& follower,
                            InferenceSession& want) {
    std::lock_guard<std::mutex> lock(follower.replica()->mu());
    ASSERT_NE(follower.replica()->session(), nullptr);
    ExpectBitIdentical(*follower.replica()->session(), want);
  }

  /// First, so it is destroyed last: after the server and client.
  std::vector<std::unique_ptr<ScopedTempDir>> temp_dirs_;
  MlnProgram program_;
  EvidenceDb evidence_;
  std::vector<EvidenceDelta> deltas_;
  std::unique_ptr<Server> server_;
  Client client_;
};

// A cold follower (empty wal_dir) must bootstrap from a shipped,
// rebased snapshot and land bit-identical to a twin that applied the
// whole stream directly.
TEST_F(ReplTest, ColdFollowerBootstrapsFromShippedSnapshot) {
  StartPrimary();
  for (size_t i = 0; i < deltas_.size(); ++i) ApplyOnPrimary(i);

  const uint64_t shipped_before =
      MetricsRegistry::Global().GetCounter("repl.snapshot.bytes.shipped")
          ->Value();
  auto follower = MakeFollower(MakeTempDir("fcold") + "/" + kSession);
  ASSERT_TRUE(follower->Start().ok());
  ASSERT_TRUE(
      WaitFor([&] { return follower->position() == deltas_.size(); }));
  EXPECT_EQ(follower->state(), FollowerState::kStreaming);
  EXPECT_GT(MetricsRegistry::Global()
                .GetCounter("repl.snapshot.bytes.shipped")
                ->Value(),
            shipped_before);

  auto twin = Twin(deltas_.size());
  ExpectReplicaMatches(*follower, *twin);
  follower->Stop();
  EXPECT_EQ(follower->state(), FollowerState::kStopped);
}

// A follower stopped at position p and restarted after the primary
// moved on must catch up over the WAL suffix alone (warm path) — for
// every p, including p = 0 and p = n.
TEST_F(ReplTest, WarmFollowerCatchesUpFromEveryPosition) {
  const size_t n = deltas_.size();
  for (size_t p = 0; p <= n; ++p) {
    SCOPED_TRACE("follower stopped at position " + std::to_string(p));
    StartPrimary();
    const std::string fdir =
        MakeTempDir("fwarm" + std::to_string(p)) + "/" + kSession;
    {
      auto first = MakeFollower(fdir);
      ASSERT_TRUE(first->Start().ok());
      for (size_t i = 0; i < p; ++i) ApplyOnPrimary(i);
      ASSERT_TRUE(WaitFor([&] { return first->position() == p; }));
      first->Stop();
    }
    // The primary moves on while the follower is down.
    for (size_t i = p; i < n; ++i) ApplyOnPrimary(i);

    auto second = MakeFollower(fdir);
    ASSERT_TRUE(second->Start().ok());
    ASSERT_TRUE(WaitFor([&] { return second->position() == n; }));
    auto twin = Twin(n);
    ExpectReplicaMatches(*second, *twin);
    second->Stop();
    server_->Stop();
  }
}

// The stream must survive a cut at each replication fault point: the
// follower reconnects, resumes at its exact position, and still ends
// bit-identical. repl.ack.drop loses an ack instead of the stream; the
// next frame's cumulative ack heals it with no reconnect required.
TEST_F(ReplTest, StreamSurvivesEveryReplFaultPoint) {
  const char* kFaults[] = {"repl.ship.mid_record", "net.send.partial",
                           "repl.ack.drop"};
  for (const char* fault : kFaults) {
    SCOPED_TRACE(fault);
    FaultPoints::Global().Reset();
    StartPrimary();
    auto follower = MakeFollower(MakeTempDir("fcut") + "/" + kSession);
    ASSERT_TRUE(follower->Start().ok());
    ASSERT_TRUE(WaitFor(
        [&] { return follower->state() == FollowerState::kStreaming; }));

    if (std::strcmp(fault, "net.send.partial") == 0) {
      // This fault lives in the server's shared send path, so arm it
      // only while the subscriber is the sole sender target: the next
      // heartbeat push is torn mid-frame and the connection cut.
      for (size_t i = 0; i + 1 < deltas_.size(); ++i) ApplyOnPrimary(i);
      ASSERT_TRUE(WaitFor(
          [&] { return follower->position() == deltas_.size() - 1; }));
      const uint64_t before = follower->reconnects();
      ASSERT_TRUE(
          FaultPoints::Global().Arm(fault, FaultAction::kTornWrite).ok());
      ASSERT_TRUE(WaitFor([&] { return follower->reconnects() > before; }));
      ApplyOnPrimary(deltas_.size() - 1);
    } else {
      ASSERT_TRUE(
          FaultPoints::Global().Arm(fault, FaultAction::kTornWrite).ok());
      for (size_t i = 0; i < deltas_.size(); ++i) ApplyOnPrimary(i);
    }
    ASSERT_TRUE(
        WaitFor([&] { return follower->position() == deltas_.size(); }));
    if (std::strcmp(fault, "repl.ship.mid_record") == 0) {
      EXPECT_GE(follower->reconnects(), 1u);
    }
    if (std::strcmp(fault, "repl.ack.drop") == 0) {
      EXPECT_GE(MetricsRegistry::Global()
                    .GetCounter("repl.acks.dropped")
                    ->Value(),
                1u);
    }

    auto twin = Twin(deltas_.size());
    ExpectReplicaMatches(*follower, *twin);
    follower->Stop();
    server_->Stop();
  }
}

// Failover: the primary dies, the follower notices via heartbeat loss
// and keeps retrying, the operator promotes, and the continuation delta
// leaves the promoted replica bit-identical to a primary that never
// failed. Before promotion the replica refuses writes with a retryable
// not-primary error naming the primary's address.
TEST_F(ReplTest, PromoteThenContinueMatchesNeverFailedPrimary) {
  StartPrimary();
  for (size_t i = 0; i + 1 < deltas_.size(); ++i) ApplyOnPrimary(i);

  auto follower = MakeFollower(MakeTempDir("fpromote") + "/" + kSession);
  ASSERT_TRUE(follower->Start().ok());
  ASSERT_TRUE(
      WaitFor([&] { return follower->position() == deltas_.size() - 1; }));

  // The primary dies; heartbeat loss turns into reconnect attempts.
  client_.Disconnect();
  server_->Stop();
  ASSERT_TRUE(WaitFor([&] { return follower->reconnects() >= 1; }));

  auto refused = follower->replica()->ApplyDelta(deltas_.back());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  const std::string msg = refused.status().ToString();
  EXPECT_NE(msg.find("not primary"), std::string::npos) << msg;
  EXPECT_NE(msg.find(follower->replica()->primary_addr()), std::string::npos)
      << msg;

  auto promoted_at = follower->Promote();
  ASSERT_TRUE(promoted_at.ok()) << promoted_at.status().ToString();
  EXPECT_EQ(promoted_at.value(), deltas_.size() - 1);
  EXPECT_EQ(follower->state(), FollowerState::kPromoted);

  auto cont = follower->replica()->ApplyDelta(deltas_.back());
  ASSERT_TRUE(cont.ok()) << cont.status().ToString();

  auto twin = Twin(deltas_.size());
  EXPECT_EQ(cont.value().map_cost, twin->map_cost());
  ExpectReplicaMatches(*follower, *twin);
}

// Promotion is refused before any state has arrived (nothing to
// promote) and refused a second time (a double promotion would fork
// the timeline).
TEST_F(ReplTest, PromotionRefusalsProtectTheTimeline) {
  {
    FollowerOptions fopts;
    fopts.primary_host = "127.0.0.1";
    fopts.primary_port = 1;  // nothing listens here
    fopts.session = kSession;
    fopts.session_options = BaseOptions();
    fopts.session_options.wal_dir = MakeTempDir("fnostate") + "/" + kSession;
    fopts.reconnect_base_seconds = 0.02;
    fopts.reconnect_max_seconds = 0.1;
    FollowerManager cold(program_, fopts);
    ASSERT_TRUE(cold.Start().ok());
    auto r = cold.Promote();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }

  StartPrimary();
  ApplyOnPrimary(0);
  auto follower = MakeFollower(MakeTempDir("fdouble") + "/" + kSession);
  ASSERT_TRUE(follower->Start().ok());
  ASSERT_TRUE(WaitFor([&] { return follower->position() == 1; }));
  ASSERT_TRUE(follower->Promote().ok());
  auto again = follower->Promote();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);
}

// A replica fronted by its own server answers reads from replicated
// state exactly as the primary answers them (both run the shared reply
// builders) and refuses writes with kNotPrimary (retryable, naming the
// primary). Client::CallWithRetry rides that flag straight across a
// concurrent promotion.
TEST_F(ReplTest, NotPrimaryOverTheWireUntilPromotion) {
  StartPrimary();
  for (size_t i = 0; i + 1 < deltas_.size(); ++i) ApplyOnPrimary(i);

  auto follower = MakeFollower(MakeTempDir("ffront") + "/" + kSession);
  ASSERT_TRUE(follower->Start().ok());
  ASSERT_TRUE(
      WaitFor([&] { return follower->position() == deltas_.size() - 1; }));

  ServerOptions fo;
  fo.replica = follower->replica();
  fo.replica_session = kSession;
  Server front(program_, evidence_, fo);
  ASSERT_TRUE(front.Start().ok());
  Client fc;
  ASSERT_TRUE(fc.Connect("127.0.0.1", front.port()).ok());

  // Reads serve the live replicated state, answered as the primary
  // answers them.
  auto ask_both = [&](MsgType type, const std::string& predicate,
                      NetResponse* front_reply, NetResponse* primary_reply) {
    NetRequest req;
    req.type = type;
    req.session = kSession;
    req.predicate = predicate;
    auto f = fc.Call(req);
    auto p = client_.Call(req);
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    *front_reply = f.TakeValue();
    *primary_reply = p.TakeValue();
  };
  NetResponse f, p;
  ASSERT_NO_FATAL_FAILURE(ask_both(MsgType::kOpenSession, "", &f, &p));
  ASSERT_EQ(f.type, MsgType::kOpenReply) << f.message;
  ASSERT_EQ(p.type, MsgType::kOpenReply) << p.message;
  EXPECT_TRUE(f.attached);
  EXPECT_EQ(f.num_atoms, p.num_atoms);
  EXPECT_EQ(f.num_clauses, p.num_clauses);
  EXPECT_EQ(f.num_components, p.num_components);
  EXPECT_EQ(f.map_cost, p.map_cost);

  ASSERT_NO_FATAL_FAILURE(ask_both(MsgType::kQueryMap, "label", &f, &p));
  ASSERT_EQ(f.type, MsgType::kMapReply) << f.message;
  ASSERT_EQ(p.type, MsgType::kMapReply) << p.message;
  EXPECT_EQ(f.map_cost, p.map_cost);
  EXPECT_FALSE(p.atoms.empty());
  EXPECT_EQ(f.atoms, p.atoms);

  // Neither session tracks marginals: the same refusal from both.
  ASSERT_NO_FATAL_FAILURE(
      ask_both(MsgType::kQueryMarginals, "label", &f, &p));
  ASSERT_EQ(f.type, MsgType::kError);
  ASSERT_EQ(p.type, MsgType::kError);
  EXPECT_EQ(f.error, p.error);
  EXPECT_EQ(p.error, WireError::kInvalidArgument);

  ASSERT_NO_FATAL_FAILURE(ask_both(MsgType::kStats, "", &f, &p));
  ASSERT_EQ(f.type, MsgType::kStatsReply) << f.message;
  ASSERT_EQ(p.type, MsgType::kStatsReply) << p.message;
  std::map<std::string, double> primary_stats(p.stats.begin(), p.stats.end());
  std::map<std::string, double> front_stats(f.stats.begin(), f.stats.end());
  // The replica carries every key the primary does, with equal values,
  // plus its replication position and promotion flag.
  for (const auto& [key, value] : primary_stats) {
    ASSERT_EQ(front_stats.count(key), 1u) << key;
    EXPECT_EQ(front_stats[key], value) << key;
  }
  ASSERT_EQ(front_stats.count("position"), 1u);
  ASSERT_EQ(front_stats.count("promoted"), 1u);
  EXPECT_EQ(front_stats["position"], deltas_.size() - 1.0);
  EXPECT_EQ(front_stats["promoted"], 0.0);

  // Writes bounce with the retryable not-primary error.
  auto d = fc.ApplyDelta(kSession, deltas_.back());
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d.value().type, MsgType::kError);
  EXPECT_EQ(d.value().error, WireError::kNotPrimary);
  EXPECT_TRUE(d.value().retryable);
  EXPECT_NE(d.value().message.find(follower->replica()->primary_addr()),
            std::string::npos)
      << d.value().message;

  // Promote mid-retry: CallWithRetry keeps resending on the retryable
  // flag and lands the delta once the replica flips writable.
  Counter* retry_count =
      MetricsRegistry::Global().GetCounter("net.client.retry.count");
  const uint64_t retries_before = retry_count->Value();
  std::thread promoter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    auto p = follower->Promote();
    EXPECT_TRUE(p.ok()) << p.status().ToString();
  });
  NetRequest req;
  req.type = MsgType::kApplyDelta;
  req.session = kSession;
  req.delta = deltas_.back();
  RetryPolicy rp;
  rp.max_attempts = 60;
  rp.base_seconds = 0.02;
  rp.max_seconds = 0.1;
  auto r = fc.CallWithRetry(req, rp);
  promoter.join();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().type, MsgType::kDeltaReply) << r.value().message;
  EXPECT_GT(retry_count->Value(), retries_before);

  auto twin = Twin(deltas_.size());
  ExpectReplicaMatches(*follower, *twin);
  front.Stop();
  server_->Stop();
}

// Fan-out: one primary streams to three followers at once, and every
// replica lands bit-identical to the twin. A slow follower (taken down
// mid-stream) must not stall the primary or its peers — replication is
// pull-paced per subscriber, not lockstep — and catches up over the WAL
// suffix when it returns.
TEST_F(ReplTest, ThreeFollowerFanOutDoesNotStallOnASlowOne) {
  StartPrimary();
  std::string dirs[3];
  std::unique_ptr<FollowerManager> followers[3];
  for (int i = 0; i < 3; ++i) {
    dirs[i] = MakeTempDir("ffan" + std::to_string(i)) + "/" + kSession;
    followers[i] = MakeFollower(dirs[i]);
    ASSERT_TRUE(followers[i]->Start().ok());
  }
  for (auto& f : followers) {
    ASSERT_TRUE(
        WaitFor([&] { return f->state() == FollowerState::kStreaming; }));
  }

  // The first delta reaches all three.
  ApplyOnPrimary(0);
  for (auto& f : followers) {
    ASSERT_TRUE(WaitFor([&] { return f->position() == 1; }));
  }

  // Follower 2 goes dark; the primary and the other two keep moving and
  // finish the stream without it.
  followers[2]->Stop();
  for (size_t i = 1; i < deltas_.size(); ++i) ApplyOnPrimary(i);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(WaitFor(
        [&] { return followers[i]->position() == deltas_.size(); }));
    EXPECT_EQ(followers[i]->state(), FollowerState::kStreaming);
  }

  // The laggard rejoins and catches up over the WAL suffix alone.
  followers[2] = MakeFollower(dirs[2]);
  ASSERT_TRUE(followers[2]->Start().ok());
  ASSERT_TRUE(
      WaitFor([&] { return followers[2]->position() == deltas_.size(); }));

  auto twin = Twin(deltas_.size());
  for (auto& f : followers) ExpectReplicaMatches(*f, *twin);
  for (auto& f : followers) f->Stop();
  server_->Stop();
}


// Seeded mutations of valid replication payloads: bit flips, inserted
// and deleted bytes, truncations and random bytes. Each of the five
// decoders must refuse a mutated payload, or decode it to a message that
// encodes back to exactly those bytes: no flag byte other than 0 or 1,
// and no non-zero request id in a push or an ack, slips through.
TEST(ReplProtocolTest, FuzzMutatedPayloadsAreRefusedOrReencodeExactly) {
  std::vector<std::string> corpus;
  corpus.push_back(EncodeReplSubscribe({7, "cli", 42, true}));
  corpus.push_back(EncodeReplSubscribe({8, "", 0, false}));
  corpus.push_back(EncodeReplSubscribeReply({7, 40, true, 32, 4096}));
  corpus.push_back(EncodeReplSubscribeReply({9, 40, false, 0, 0}));
  corpus.push_back(EncodeReplSnapshotChunk({0, "TFYSNAP1 chunk", false, 32}));
  corpus.push_back(EncodeReplSnapshotChunk({14, "", true, 32}));
  corpus.push_back(EncodeReplWalRecords({33, 40, {"first", "", "third"}}));
  corpus.push_back(EncodeReplWalRecords({41, 40, {}}));  // heartbeat
  corpus.push_back(EncodeReplAck({"cli", 40}));

  // Decodes `bytes` with every decoder; returns how many accepted it.
  const auto check = [](const std::string& bytes, uint64_t iter) {
    int accepted = 0;
    const auto same = [&](const auto& decoded, const auto& encode) {
      if (!decoded.ok()) return;
      ++accepted;
      EXPECT_EQ(encode(decoded.value()), bytes) << "iteration " << iter;
    };
    same(DecodeReplSubscribe(bytes), EncodeReplSubscribe);
    same(DecodeReplSubscribeReply(bytes), EncodeReplSubscribeReply);
    same(DecodeReplSnapshotChunk(bytes), EncodeReplSnapshotChunk);
    same(DecodeReplWalRecords(bytes), EncodeReplWalRecords);
    same(DecodeReplAck(bytes), EncodeReplAck);
    return accepted;
  };
  for (const std::string& p : corpus) ASSERT_EQ(check(p, 0), 1);

  constexpr uint64_t kIters = 20000;
  uint64_t decoded = 0;
  for (uint64_t it = 0; it < kIters; ++it) {
    Rng rng(it);
    std::string p = corpus[rng.Uniform(corpus.size())];
    const int edits = 1 + static_cast<int>(rng.Uniform(3));
    for (int k = 0; k < edits; ++k) {
      const size_t pos = rng.Uniform(p.size() + 1);
      switch (rng.Uniform(5)) {
        case 0:  // flip one bit
          if (pos < p.size()) {
            p[pos] ^= static_cast<char>(1u << rng.Uniform(8));
          }
          break;
        case 1:  // insert a byte
          p.insert(p.begin() + pos, static_cast<char>(rng.Uniform(256)));
          break;
        case 2:  // delete a short run
          p.erase(pos, 1 + rng.Uniform(4));
          break;
        case 3:  // truncate
          p.resize(pos);
          break;
        case 4:  // overwrite a run with random bytes
          for (size_t i = pos; i < p.size() && i < pos + 8; ++i) {
            p[i] = static_cast<char>(rng.Uniform(256));
          }
          break;
      }
    }
    decoded += check(p, it) > 0;
  }
  // Enough mutants must decode for the re-encoding check to bite.
  EXPECT_GT(decoded, kIters / 20);
}

}  // namespace
}  // namespace tuffy
