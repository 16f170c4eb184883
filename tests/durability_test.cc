#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "datagen/datasets.h"
#include "durability/serialize.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "exec/tuffy_engine.h"
#include "mln/parser.h"
#include "serve/session_manager.h"
#include "temp_dir.h"
#include "util/crc32.h"
#include "util/fault_points.h"

namespace tuffy {
namespace {

/// Flips one byte at `offset` from the file end (negative = from end).
void CorruptFile(const std::string& path, long offset_from_end) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset_from_end, SEEK_END), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset_from_end, SEEK_END), 0);
  std::fputc(c ^ 0xFF, f);
  std::fclose(f);
}

// ---------------------------------------------------------------- crc32

TEST(Crc32Test, KnownVectors) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t crc = 0;
  for (char c : data) crc = Crc32Update(crc, &c, 1);
  EXPECT_EQ(crc, Crc32(data.data(), data.size()));
}

// ---------------------------------------------------------- fault points

class FaultPointTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultPoints::Global().Reset(); }
  void TearDown() override { FaultPoints::Global().Reset(); }
};

TEST_F(FaultPointTest, UnknownPointIsRejected) {
  Status st = FaultPoints::Global().Arm("no.such.point", FaultAction::kIOError);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(FaultPointTest, FiresOnceThenDisarms) {
  ASSERT_TRUE(
      FaultPoints::Global().Arm("wal.sync.before", FaultAction::kIOError).ok());
  EXPECT_EQ(FaultPoints::Global().Hit("wal.sync.before"), FaultAction::kIOError);
  EXPECT_EQ(FaultPoints::Global().Hit("wal.sync.before"), FaultAction::kNone);
  EXPECT_EQ(FaultPoints::Global().hits("wal.sync.before"), 2u);
}

TEST_F(FaultPointTest, SkipCountDelaysFiring) {
  ASSERT_TRUE(FaultPoints::Global()
                  .Arm("wal.append.before", FaultAction::kIOError, /*skip=*/2)
                  .ok());
  EXPECT_EQ(FaultPoints::Global().Hit("wal.append.before"), FaultAction::kNone);
  EXPECT_EQ(FaultPoints::Global().Hit("wal.append.before"), FaultAction::kNone);
  EXPECT_EQ(FaultPoints::Global().Hit("wal.append.before"),
            FaultAction::kIOError);
}

TEST_F(FaultPointTest, SpecGrammar) {
  EXPECT_TRUE(ArmFaultFromSpec("wal.sync.before=ioerror").ok());
  EXPECT_TRUE(ArmFaultFromSpec("disk.write_page=torn@3").ok());
  EXPECT_TRUE(ArmFaultFromSpec("snapshot.rename.before").ok());  // bare = crash
  EXPECT_FALSE(ArmFaultFromSpec("wal.sync.before=frobnicate").ok());
  EXPECT_FALSE(ArmFaultFromSpec("bogus.point=crash").ok());
  FaultPoints::Global().Reset();
}

// ------------------------------------------------------------------ wal

TEST(WalTest, AppendScanRoundTrip) {
  const ScopedTempDir tmp("durability_wal");
  const std::string& dir = tmp.path();
  const std::string path = dir + "/wal.log";
  {
    auto w = WalWriter::Create(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value()->Append("alpha").ok());
    ASSERT_TRUE(w.value()->Append("").ok());  // empty payload is legal
    ASSERT_TRUE(w.value()->Append(std::string(3000, 'x')).ok());
    ASSERT_TRUE(w.value()->Sync().ok());
    EXPECT_EQ(w.value()->records_appended(), 3u);
  }
  auto scan = ScanWal(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan.value().payloads.size(), 3u);
  EXPECT_EQ(scan.value().payloads[0], "alpha");
  EXPECT_EQ(scan.value().payloads[1], "");
  EXPECT_EQ(scan.value().payloads[2], std::string(3000, 'x'));
  EXPECT_EQ(scan.value().truncated_bytes, 0u);
}

TEST(WalTest, ScanStopsAtCorruptRecordAndTruncateHeals) {
  const ScopedTempDir tmp("durability_torn");
  const std::string& dir = tmp.path();
  const std::string path = dir + "/wal.log";
  {
    auto w = WalWriter::Create(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value()->Append("first").ok());
    ASSERT_TRUE(w.value()->Append("second").ok());
    ASSERT_TRUE(w.value()->Sync().ok());
  }
  CorruptFile(path, -2);  // inside the payload of "second"

  auto scan = ScanWal(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan.value().payloads.size(), 1u);
  EXPECT_EQ(scan.value().payloads[0], "first");
  EXPECT_GT(scan.value().truncated_bytes, 0u);

  ASSERT_TRUE(TruncateFile(path, scan.value().valid_bytes).ok());
  auto rescan = ScanWal(path);
  ASSERT_TRUE(rescan.ok());
  EXPECT_EQ(rescan.value().payloads.size(), 1u);
  EXPECT_EQ(rescan.value().truncated_bytes, 0u);
}

TEST(WalTest, InjectedMidRecordFaultLeavesTornTail) {
  FaultPoints::Global().Reset();
  const ScopedTempDir tmp("durability_midrec");
  const std::string& dir = tmp.path();
  const std::string path = dir + "/wal.log";
  auto w = WalWriter::Create(path);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w.value()->Append("survivor").ok());
  ASSERT_TRUE(
      FaultPoints::Global()
          .Arm("wal.append.mid_record", FaultAction::kIOError)
          .ok());
  EXPECT_FALSE(w.value()->Append("torn-casualty-record").ok());

  auto scan = ScanWal(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan.value().payloads.size(), 1u);
  EXPECT_EQ(scan.value().payloads[0], "survivor");
  EXPECT_GT(scan.value().truncated_bytes, 0u);
  FaultPoints::Global().Reset();
}

// ------------------------------------------------------------- snapshots

TEST(SnapshotTest, WriteReadRoundTripAndOrdering) {
  const ScopedTempDir tmp("durability_snap");
  const std::string& dir = tmp.path();
  ASSERT_TRUE(WriteSnapshotFile(dir, 0, "genesis").ok());
  ASSERT_TRUE(WriteSnapshotFile(dir, 12, "later").ok());
  auto snaps = ListSnapshots(dir);
  ASSERT_TRUE(snaps.ok());
  ASSERT_EQ(snaps.value().size(), 2u);
  EXPECT_EQ(snaps.value()[0].seq, 12u);  // newest first
  EXPECT_EQ(snaps.value()[1].seq, 0u);
  auto payload = ReadSnapshotFile(snaps.value()[0].path);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload.value(), "later");
}

TEST(SnapshotTest, CorruptSnapshotReportsCorruption) {
  const ScopedTempDir tmp("durability_snapbad");
  const std::string& dir = tmp.path();
  ASSERT_TRUE(WriteSnapshotFile(dir, 1, "precious bytes").ok());
  const std::string path = dir + "/" + SnapshotFileName(1);
  CorruptFile(path, -3);
  EXPECT_EQ(ReadSnapshotFile(path).status().code(), StatusCode::kCorruption);
}

TEST(SnapshotTest, FailedRenameNeverPublishes) {
  FaultPoints::Global().Reset();
  const ScopedTempDir tmp("durability_snaptmp");
  const std::string& dir = tmp.path();
  ASSERT_TRUE(
      FaultPoints::Global()
          .Arm("snapshot.rename.before", FaultAction::kIOError)
          .ok());
  EXPECT_FALSE(WriteSnapshotFile(dir, 7, "never-visible").ok());
  auto snaps = ListSnapshots(dir);
  ASSERT_TRUE(snaps.ok());
  EXPECT_TRUE(snaps.value().empty());  // the orphaned *.tmp is not listed
  FaultPoints::Global().Reset();
}

// --------------------------------------------------- recovery equivalence

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

/// The delta stream the whole matrix runs: an add, a retraction, and a
/// mixed multi-op batch, plus a continuation delta applied after
/// recovery to prove the recovered session's future matches too.
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

/// Bit-identity: atom universe, clause list (order included), literal
/// vectors, weight bit patterns, best truth, and exact MAP cost.
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

struct CrashCase {
  const char* fault;
  /// Deltas that survive when the fault fires while applying delta k:
  /// k for pre-durability append faults (the record never became
  /// durable), k+1 for sync/snapshot faults (the record is in the log).
  bool record_survives;
};

class RecoveryMatrixTest : public ::testing::TestWithParam<CrashCase> {
 protected:
  void SetUp() override { FaultPoints::Global().Reset(); }
  void TearDown() override { FaultPoints::Global().Reset(); }
};

TEST_P(RecoveryMatrixTest, RecoveredEqualsUncrashedTwin) {
  const CrashCase& cc = GetParam();
  MlnProgram program = LinkProgram();
  const EvidenceDb evidence = InitialEvidence(program);
  const std::vector<EvidenceDelta> deltas = DeltaStream(program);

  // Crash at every position in the stream: while applying the add, the
  // retraction, and the multi-op batch.
  for (size_t k = 0; k < 3; ++k) {
    SCOPED_TRACE(std::string(cc.fault) + " at delta " + std::to_string(k));
    const ScopedTempDir tmp("durability_matrix" + std::to_string(k));
    const std::string& dir = tmp.path();
    SessionOptions durable = BaseOptions();
    durable.wal_dir = dir;
    durable.snapshot_every = 1;  // snapshot faults need an attempt per delta

    // Victim: apply deltas 0..k-1 cleanly, then crash inside delta k.
    {
      InferenceSession victim(program, durable);
      ASSERT_TRUE(victim.Open(evidence).ok());
      for (size_t i = 0; i < k; ++i) {
        ASSERT_TRUE(victim.ApplyDelta(deltas[i]).ok());
      }
      ASSERT_TRUE(
          FaultPoints::Global().Arm(cc.fault, FaultAction::kIOError).ok());
      auto crashed = victim.ApplyDelta(deltas[k]);
      ASSERT_FALSE(crashed.ok());
      // The session is poisoned, exactly like a dead process.
      EXPECT_FALSE(victim.ApplyDelta(deltas[3]).ok());
    }
    FaultPoints::Global().Reset();

    const size_t survived = k + (cc.record_survives ? 1 : 0);
    RecoveryStats rstats;
    auto recovered = InferenceSession::Recover(program, durable,
                                               /*shared_pool=*/nullptr,
                                               &rstats);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(rstats.records_skipped + rstats.records_replayed,
              rstats.wal_records_total);

    // Twin: a never-crashed volatile session that applied exactly the
    // deltas the log retained.
    InferenceSession twin(program, BaseOptions());
    ASSERT_TRUE(twin.Open(evidence).ok());
    for (size_t i = 0; i < survived; ++i) {
      ASSERT_TRUE(twin.ApplyDelta(deltas[i]).ok());
    }
    ExpectBitIdentical(*recovered.value(), twin);

    // The recovered session's future must match as well: epoch (and so
    // every seed stream) was restored, not reset.
    auto r_next = recovered.value()->ApplyDelta(deltas[3]);
    auto t_next = twin.ApplyDelta(deltas[3]);
    ASSERT_TRUE(r_next.ok());
    ASSERT_TRUE(t_next.ok());
    EXPECT_EQ(r_next.value().map_cost, t_next.value().map_cost);
    ExpectBitIdentical(*recovered.value(), twin);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultPoints, RecoveryMatrixTest,
    ::testing::Values(CrashCase{"wal.append.before", false},
                      CrashCase{"wal.append.mid_record", false},
                      CrashCase{"wal.append.short_write", false},
                      CrashCase{"wal.sync.before", true},
                      CrashCase{"snapshot.write.mid", true},
                      CrashCase{"snapshot.rename.before", true}));

TEST(RecoveryTest, TornTailIsTruncatedAndLoggingContinues) {
  FaultPoints::Global().Reset();
  MlnProgram program = LinkProgram();
  const EvidenceDb evidence = InitialEvidence(program);
  const std::vector<EvidenceDelta> deltas = DeltaStream(program);
  const ScopedTempDir tmp("durability_tail");
  const std::string& dir = tmp.path();
  SessionOptions durable = BaseOptions();
  durable.wal_dir = dir;

  {
    InferenceSession victim(program, durable);
    ASSERT_TRUE(victim.Open(evidence).ok());
    ASSERT_TRUE(victim.ApplyDelta(deltas[0]).ok());
    ASSERT_TRUE(FaultPoints::Global()
                    .Arm("wal.append.mid_record", FaultAction::kIOError)
                    .ok());
    ASSERT_FALSE(victim.ApplyDelta(deltas[1]).ok());
  }
  FaultPoints::Global().Reset();

  RecoveryStats rstats;
  auto recovered =
      InferenceSession::Recover(program, durable, nullptr, &rstats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GT(rstats.truncated_bytes, 0u);

  // The recovered session keeps appending to the healed log: apply the
  // rest of the stream, recover *again*, and the twin of the full stream
  // must match.
  ASSERT_TRUE(recovered.value()->ApplyDelta(deltas[1]).ok());
  ASSERT_TRUE(recovered.value()->ApplyDelta(deltas[2]).ok());
  recovered.value().reset();

  auto again = InferenceSession::Recover(program, durable, nullptr, &rstats);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(rstats.truncated_bytes, 0u);

  InferenceSession twin(program, BaseOptions());
  ASSERT_TRUE(twin.Open(evidence).ok());
  for (size_t i = 0; i < 3; ++i) ASSERT_TRUE(twin.ApplyDelta(deltas[i]).ok());
  ExpectBitIdentical(*again.value(), twin);
}

TEST(RecoveryTest, CorruptNewestSnapshotFallsBackAndReplaysMore) {
  MlnProgram program = LinkProgram();
  const EvidenceDb evidence = InitialEvidence(program);
  const std::vector<EvidenceDelta> deltas = DeltaStream(program);
  const ScopedTempDir tmp("durability_stale");
  const std::string& dir = tmp.path();
  SessionOptions durable = BaseOptions();
  durable.wal_dir = dir;
  durable.snapshot_every = 1;

  {
    InferenceSession victim(program, durable);
    ASSERT_TRUE(victim.Open(evidence).ok());
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(victim.ApplyDelta(deltas[i]).ok());
    }
  }
  // Newest snapshot (seq 3) goes bad on disk; seq 2 must backstop it,
  // with the last delta re-derived from the WAL.
  CorruptFile(dir + "/" + SnapshotFileName(3), -5);

  RecoveryStats rstats;
  auto recovered =
      InferenceSession::Recover(program, durable, nullptr, &rstats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(rstats.snapshots_tried, 2u);
  EXPECT_EQ(rstats.snapshot_seq, 2u);
  EXPECT_EQ(rstats.records_replayed, 1u);

  InferenceSession twin(program, BaseOptions());
  ASSERT_TRUE(twin.Open(evidence).ok());
  for (size_t i = 0; i < 3; ++i) ASSERT_TRUE(twin.ApplyDelta(deltas[i]).ok());
  ExpectBitIdentical(*recovered.value(), twin);
}

TEST(RecoveryTest, SnapshotNewerThanWalRebasesTimeline) {
  // Simulates fsync-off tail loss: the newest snapshot has absorbed a
  // WAL record that no longer survives in the file. Recovery must
  // re-anchor its record counter onto the surviving file — otherwise
  // deltas appended after this recovery are over-skipped (silently
  // dropped) by the next one.
  MlnProgram program = LinkProgram();
  const EvidenceDb evidence = InitialEvidence(program);
  const std::vector<EvidenceDelta> deltas = DeltaStream(program);
  const ScopedTempDir tmp("durability_rebase");
  const std::string& dir = tmp.path();
  SessionOptions durable = BaseOptions();
  durable.wal_dir = dir;
  durable.snapshot_every = 1;

  {
    InferenceSession victim(program, durable);
    ASSERT_TRUE(victim.Open(evidence).ok());
    ASSERT_TRUE(victim.ApplyDelta(deltas[0]).ok());
    ASSERT_TRUE(victim.ApplyDelta(deltas[1]).ok());
  }
  // Lose delta 1's record from the log; snapshot-2 still covers it.
  CorruptFile(dir + "/wal.log", -2);

  RecoveryStats rstats;
  auto recovered =
      InferenceSession::Recover(program, durable, nullptr, &rstats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(rstats.snapshot_seq, 2u);
  EXPECT_EQ(rstats.wal_records_total, 1u);
  EXPECT_EQ(rstats.records_skipped, 1u);
  EXPECT_EQ(rstats.records_replayed, 0u);

  {
    InferenceSession twin(program, BaseOptions());
    ASSERT_TRUE(twin.Open(evidence).ok());
    ASSERT_TRUE(twin.ApplyDelta(deltas[0]).ok());
    ASSERT_TRUE(twin.ApplyDelta(deltas[1]).ok());
    ExpectBitIdentical(*recovered.value(), twin);
  }

  // The rebase re-anchored the restored state as a snapshot at the
  // surviving record count and removed the dead-timeline snapshot whose
  // seq pointed past the end of the file.
  auto snaps = ListSnapshots(dir);
  ASSERT_TRUE(snaps.ok());
  ASSERT_FALSE(snaps.value().empty());
  EXPECT_EQ(snaps.value()[0].seq, 1u);

  // A delta appended after the rebased recovery stays durable: recover
  // again and the twin of all three deltas must match.
  ASSERT_TRUE(recovered.value()->ApplyDelta(deltas[2]).ok());
  recovered.value().reset();

  auto again = InferenceSession::Recover(program, durable, nullptr, &rstats);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(rstats.records_skipped + rstats.records_replayed,
            rstats.wal_records_total);

  InferenceSession twin(program, BaseOptions());
  ASSERT_TRUE(twin.Open(evidence).ok());
  for (size_t i = 0; i < 3; ++i) ASSERT_TRUE(twin.ApplyDelta(deltas[i]).ok());
  ExpectBitIdentical(*again.value(), twin);
}

TEST(RecoveryTest, UnreadableSnapshotFallsBackToOlder) {
  MlnProgram program = LinkProgram();
  const EvidenceDb evidence = InitialEvidence(program);
  const std::vector<EvidenceDelta> deltas = DeltaStream(program);
  const ScopedTempDir tmp("durability_unreadable");
  const std::string& dir = tmp.path();
  SessionOptions durable = BaseOptions();
  durable.wal_dir = dir;
  durable.snapshot_every = 1;
  {
    InferenceSession victim(program, durable);
    ASSERT_TRUE(victim.Open(evidence).ok());
    ASSERT_TRUE(victim.ApplyDelta(deltas[0]).ok());
  }
  // A "snapshot" that lists but cannot be read (a directory stands in
  // for a file that vanished between listing and reading, or a failing
  // device): the fallback walk must move past it to an older intact
  // candidate, not abort on the non-Corruption error.
  ASSERT_EQ(::mkdir((dir + "/" + SnapshotFileName(9)).c_str(), 0755), 0);

  RecoveryStats rstats;
  auto recovered =
      InferenceSession::Recover(program, durable, nullptr, &rstats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(rstats.snapshots_tried, 2u);
  EXPECT_EQ(rstats.snapshot_seq, 1u);

  InferenceSession twin(program, BaseOptions());
  ASSERT_TRUE(twin.Open(evidence).ok());
  ASSERT_TRUE(twin.ApplyDelta(deltas[0]).ok());
  ExpectBitIdentical(*recovered.value(), twin);
}

TEST(RecoveryTest, FailedOpenLeavesDirRetryable) {
  FaultPoints::Global().Reset();
  MlnProgram program = LinkProgram();
  const EvidenceDb evidence = InitialEvidence(program);
  const ScopedTempDir tmp("durability_halfinit");
  const std::string& dir = tmp.path();
  SessionOptions durable = BaseOptions();
  durable.wal_dir = dir;

  // Fail initialization after the WAL file exists but before snapshot 0
  // lands — the half-initialized state that used to wedge the directory
  // (Open: AlreadyExists; Recover: no usable snapshot).
  ASSERT_TRUE(FaultPoints::Global()
                  .Arm("snapshot.rename.before", FaultAction::kIOError)
                  .ok());
  {
    InferenceSession victim(program, durable);
    EXPECT_FALSE(victim.Open(evidence).ok());
  }
  FaultPoints::Global().Reset();
  // wal.log is published last, so the failed attempt never created it...
  EXPECT_NE(::access((dir + "/wal.log").c_str(), F_OK), 0);

  // ...and a plain retry opens, publishes, and stays recoverable.
  {
    InferenceSession retry(program, durable);
    ASSERT_TRUE(retry.Open(evidence).ok());
  }
  EXPECT_EQ(::access((dir + "/wal.log").c_str(), F_OK), 0);
  EXPECT_TRUE(InferenceSession::Recover(program, durable).ok());
}

TEST(RecoveryTest, RefusesForeignDurableState) {
  MlnProgram program = LinkProgram();
  const ScopedTempDir tmp("durability_foreign");
  const std::string& dir = tmp.path();
  SessionOptions durable = BaseOptions();
  durable.wal_dir = dir;
  {
    InferenceSession session(program, durable);
    ASSERT_TRUE(session.Open(InitialEvidence(program)).ok());
  }
  // Same program, different inference knobs: the durable state would
  // diverge from such a session, so recovery must refuse it.
  SessionOptions other = durable;
  other.seed = 999;
  EXPECT_EQ(InferenceSession::Recover(program, other).status().code(),
            StatusCode::kCorruption);
  // The original options still recover fine.
  EXPECT_TRUE(InferenceSession::Recover(program, durable).ok());
}

TEST(RecoveryTest, OpenRefusesExistingDurableDir) {
  MlnProgram program = LinkProgram();
  const ScopedTempDir tmp("durability_reopen");
  const std::string& dir = tmp.path();
  SessionOptions durable = BaseOptions();
  durable.wal_dir = dir;
  {
    InferenceSession session(program, durable);
    ASSERT_TRUE(session.Open(InitialEvidence(program)).ok());
  }
  InferenceSession clobber(program, durable);
  EXPECT_EQ(clobber.Open(InitialEvidence(program)).code(),
            StatusCode::kAlreadyExists);
}

TEST(RecoveryDeathTest, InjectedCrashLeavesRecoverableState) {
  // "fast" = fork without re-exec: the child inherits `dir` and the open
  // session state, so the parent can recover the very files it tore.
  GTEST_FLAG_SET(death_test_style, "fast");
  MlnProgram program = LinkProgram();
  const EvidenceDb evidence = InitialEvidence(program);
  const std::vector<EvidenceDelta> deltas = DeltaStream(program);
  const ScopedTempDir tmp("durability_crash");
  const std::string& dir = tmp.path();
  SessionOptions durable = BaseOptions();
  durable.wal_dir = dir;

  // The child process genuinely dies via _Exit(43) halfway through the
  // second delta's WAL append — no destructors, no flushes — leaving a
  // torn record on disk for the parent to recover past.
  EXPECT_EXIT(
      {
        InferenceSession victim(program, durable);
        if (!victim.Open(evidence).ok()) ::_exit(1);
        if (!victim.ApplyDelta(deltas[0]).ok()) ::_exit(2);
        if (!FaultPoints::Global()
                 .Arm("wal.append.mid_record", FaultAction::kCrash)
                 .ok()) {
          ::_exit(3);
        }
        (void)victim.ApplyDelta(deltas[1]);
        ::_exit(4);  // unreachable: the fault point _Exit(43)s first
      },
      ::testing::ExitedWithCode(kFaultCrashExitCode), "");

  RecoveryStats rstats;
  auto recovered =
      InferenceSession::Recover(program, durable, nullptr, &rstats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GT(rstats.truncated_bytes, 0u);

  InferenceSession twin(program, BaseOptions());
  ASSERT_TRUE(twin.Open(evidence).ok());
  ASSERT_TRUE(twin.ApplyDelta(deltas[0]).ok());
  ExpectBitIdentical(*recovered.value(), twin);
}

// ------------------------------------------------- committed crash fixture

/// The directory of committed fixture `name` under tests/fixtures.
std::string FixtureDir(const std::string& name) {
  const std::string source = __FILE__;
  return source.substr(0, source.rfind('/')) + "/fixtures/" + name;
}

/// tests/fixtures/rc_session_crash_at_delta2 holds what
/// `serving_session -wal_dir D -crash_at 'wal.append.mid_record=crash@2'`
/// left on disk before the clause store moved into GroundClauseStore:
/// snapshot 0 (taken at Open), delta 0's WAL record, and delta 1's torn
/// record. A change to any durable format regenerates it with the same
/// command and says so in CHANGES.md.
std::string CrashFixtureDir() {
  return FixtureDir("rc_session_crash_at_delta2");
}

void CopyFile(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  ASSERT_TRUE(in.good()) << "cannot read " << from;
  std::ofstream out(to, std::ios::binary);
  out << in.rdbuf();
  ASSERT_TRUE(out.good()) << "cannot write " << to;
}

TEST(RecoveryTest, CommittedCrashFixtureRecoversToTheUncrashedAnswer) {
  // serving_session's program, options and delta stream.
  RcParams params;
  params.num_clusters = 4;
  params.papers_per_cluster = 6;
  params.num_categories = 3;
  params.labeled_fraction = 0.6;
  auto ds = MakeRcDataset(params);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  const MlnProgram& program = ds.value().program;
  const EvidenceDb& evidence = ds.value().evidence;
  EngineOptions opts;
  opts.search_mode = SearchMode::kComponentAware;
  opts.grounding.lazy_closure = false;
  opts.total_flips = 80000;
  opts.snapshot_every = 2;

  const PredicateId cat = program.FindPredicate("cat").value();
  std::vector<EvidenceDelta> deltas(3);
  for (const auto& [atom, truth] : evidence.entries()) {
    if (atom.pred == cat && truth) {
      deltas[0].Retract(atom);
      break;
    }
  }
  ASSERT_FALSE(deltas[0].empty());
  deltas[1].Assert(Atom(program, "cat", {"P0", "Networking"}), true);
  deltas[2].Assert(Atom(program, "refers", {"P0", "P11"}), true);

  // Recovery truncates the torn tail and appends, so it runs on a copy.
  const ScopedTempDir tmp("durability_fixture");
  const std::string& dir = tmp.path();
  for (const char* name : {"wal.log", "snapshot-0000000000.snap"}) {
    CopyFile(CrashFixtureDir() + "/" + name, dir + "/" + name);
  }
  EngineOptions durable = opts;
  durable.wal_dir = dir;
  RecoveryStats rstats;
  auto recovered = TuffyEngine(program, evidence, durable).RecoverSession(
      &rstats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(rstats.snapshot_seq, 0u);
  EXPECT_EQ(rstats.records_replayed, 1u);
  EXPECT_GT(rstats.truncated_bytes, 0u);
  ASSERT_EQ(recovered.value()->stats().deltas_applied, 1u);
  for (size_t i = 1; i < deltas.size(); ++i) {
    ASSERT_TRUE(recovered.value()->ApplyDelta(deltas[i]).ok()) << i;
  }

  auto twin = TuffyEngine(program, evidence, opts).OpenSession();
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  for (const EvidenceDelta& delta : deltas) {
    ASSERT_TRUE(twin.value()->ApplyDelta(delta).ok());
  }
  ExpectBitIdentical(*recovered.value(), *twin.value());
}

/// tests/fixtures/er_session_running_sums holds the WAL (header and three
/// delta records) and snapshot 2 of the ER session the test below
/// builds, as the build at commit 0b7d60f wrote them. That build stored
/// each clause's weight and each rule's fixed cost as a running sum,
/// which for ER's fractional weights lies some ulps from what the counts
/// derive: the twelve sameBib pairs labeled true fix 12 x 0.3 at Open,
/// and the first delta's simVenue assertion moves a clause three rules
/// feed. A current build writes the derived values, so regenerating the
/// fixture would drop what it checks: keep it while its snapshot format
/// is read.
TEST(RecoveryTest, RunningSumStateFromAnOlderBuildRecovers) {
  ErParams params;
  params.num_records = 10;
  params.num_entities = 3;
  auto ds = MakeErDataset(params);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  const MlnProgram& program = ds.value().program;
  const EvidenceDb& base = ds.value().evidence;
  auto pair_atom = [&](const char* pred, std::pair<int, int> p) {
    return Atom(program, pred, {"B" + std::to_string(p.first),
                                "B" + std::to_string(p.second)});
  };
  auto holds = [&](const char* pred, std::pair<int, int> p) {
    return base.Explicit(pair_atom(pred, p)) == Truth::kTrue;
  };
  // sameBib is labeled true where simTitle and simAuthor hold and false
  // where simVenue alone does; two unlabeled pools feed the deltas.
  EvidenceDb evidence = base;
  std::vector<std::pair<int, int>> labeled, author_only, plain;
  for (int a = 0; a < params.num_records; ++a) {
    for (int b = 0; b < params.num_records; ++b) {
      if (a == b) continue;
      const std::pair<int, int> p{a, b};
      const bool title = holds("simTitle", p);
      const bool author = holds("simAuthor", p);
      const bool venue = holds("simVenue", p);
      if (title && author) {
        evidence.Add(pair_atom("sameBib", p), true);
        labeled.push_back(p);
      } else if (venue && !title && !author) {
        evidence.Add(pair_atom("sameBib", p), false);
      } else if (author && !title && !venue) {
        author_only.push_back(p);
      } else if (!title && !author && !venue) {
        plain.push_back(p);
      }
    }
  }
  ASSERT_EQ(labeled.size(), 12u);
  ASSERT_GE(author_only.size(), 2u);
  ASSERT_GE(plain.size(), 5u);
  std::vector<EvidenceDelta> deltas(3);
  deltas[0].Assert(pair_atom("simVenue", author_only[0]), true);
  for (int k = 0; k < 3; ++k) {
    deltas[0].Assert(pair_atom("sameBib", plain[k]), true);
  }
  deltas[1].Retract(pair_atom("sameBib", labeled[0]));
  deltas[1].Assert(pair_atom("sameBib", plain[3]), false);
  deltas[2].Assert(pair_atom("simVenue", author_only[1]), true);
  deltas[2].Assert(pair_atom("simTitle", plain[4]), true);

  EngineOptions opts;
  opts.search_mode = SearchMode::kComponentAware;
  opts.total_flips = 20000;
  opts.snapshot_every = 2;
  const ScopedTempDir tmp("durability_running_sums");
  const std::string& dir = tmp.path();
  for (const char* name : {"wal.log", "snapshot-0000000002.snap"}) {
    CopyFile(FixtureDir("er_session_running_sums") + "/" + name,
             dir + "/" + name);
  }
  EngineOptions durable = opts;
  durable.wal_dir = dir;
  RecoveryStats rstats;
  auto recovered = TuffyEngine(program, evidence, durable).RecoverSession(
      &rstats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(rstats.snapshot_seq, 2u);
  EXPECT_EQ(rstats.records_replayed, 1u);

  // Loaded weights and fixed costs are the derived ones, so the recovered
  // session equals one that never left this build.
  auto twin = TuffyEngine(program, evidence, opts).OpenSession();
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  for (const EvidenceDelta& delta : deltas) {
    ASSERT_TRUE(twin.value()->ApplyDelta(delta).ok());
  }
  ExpectBitIdentical(*recovered.value(), *twin.value());
}

// -------------------------------------------------------- session manager

TEST(SessionManagerDurabilityTest, PerSessionDirsAndRecover) {
  MlnProgram program = LinkProgram();
  const EvidenceDb evidence = InitialEvidence(program);
  const std::vector<EvidenceDelta> deltas = DeltaStream(program);
  const ScopedTempDir tmp("durability_mgr");
  const std::string& root = tmp.path();

  SessionManagerOptions mopts;
  mopts.durability_root = root;
  mopts.snapshot_every = 2;

  {
    SessionManager manager(mopts);
    auto s = manager.Open("alpha", program, evidence, BaseOptions());
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    ASSERT_TRUE(manager.ApplyDelta("alpha", deltas[0]).ok());
    ASSERT_TRUE(manager.ApplyDelta("alpha", deltas[1]).ok());
    // Manager (and process, in the real story) goes away without Close.
  }
  EXPECT_EQ(::access((root + "/alpha/wal.log").c_str(), F_OK), 0);

  SessionManager manager2(mopts);
  RecoveryStats rstats;
  auto recovered = manager2.Recover("alpha", program, BaseOptions(), &rstats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(rstats.wal_records_total, 2u);
  EXPECT_GT(manager2.resident_bytes(), 0u);

  InferenceSession twin(program, BaseOptions());
  ASSERT_TRUE(twin.Open(evidence).ok());
  ASSERT_TRUE(twin.ApplyDelta(deltas[0]).ok());
  ASSERT_TRUE(twin.ApplyDelta(deltas[1]).ok());
  ExpectBitIdentical(*recovered.value(), twin);

  // Recovered sessions are full citizens: deltas, admission accounting,
  // Close.
  ASSERT_TRUE(manager2.ApplyDelta("alpha", deltas[2]).ok());
  EXPECT_TRUE(manager2.Close("alpha").ok());
}

TEST(SessionManagerDurabilityTest, RecoverNeedsDurabilityRoot) {
  MlnProgram program = LinkProgram();
  SessionManager manager(SessionManagerOptions{});
  EXPECT_EQ(manager.Recover("ghost", program, BaseOptions()).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tuffy
