#ifndef TUFFY_SERVE_REPLICA_SESSION_H_
#define TUFFY_SERVE_REPLICA_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "serve/inference_session.h"

namespace tuffy {

/// A hot-standby InferenceSession fed by the replication stream
/// (docs/DURABILITY.md, "Replication & failover"). Until Promote(), the
/// session is read-only to clients: queries are served from the live
/// replicated state, while ApplyDelta refuses with a retryable
/// not-primary error carrying the primary's address. Promote() seals the
/// local WAL (fsync barrier) and flips the session writable; a second
/// Promote() is refused — there is exactly one promotion event per
/// replica lifetime, and the operator owns the split-brain question (see
/// the docs caveat: this layer cannot tell a dead primary from a
/// partitioned one).
///
/// Thread model: the follower's streaming thread applies shipped records
/// while server workers and the REPL query concurrently, so every state
/// access goes through mu_ (queries included — grounder read paths are
/// not lock-free against a concurrent apply). position()/promoted()/
/// has_state() are atomics for lock-free monitoring.
class ReplicaSession {
 public:
  /// `primary_addr` ("host:port") is advertising only — it rides in the
  /// not-primary error so clients know where writes go.
  ReplicaSession(const MlnProgram& program, SessionOptions options,
                 std::string primary_addr);

  /// Warm restart: if options.wal_dir holds durable state, Recover it
  /// and resume from its position. Returns true when state was
  /// recovered, false when the directory is empty (cold — the first
  /// subscribe will bootstrap). `shared_pool` must outlive this object.
  Result<bool> RecoverLocal(ThreadPool* shared_pool = nullptr,
                            RecoveryStats* stats = nullptr);

  /// Cold bootstrap from a primary-shipped (rebased) snapshot landing at
  /// `primary_position`. Refused once state exists.
  Status BootstrapFromSnapshot(const std::string& payload,
                               uint64_t primary_position,
                               ThreadPool* shared_pool = nullptr);

  /// Applies one shipped WAL record through the durable replay path and
  /// advances position(). An InvalidArgument result mirrors the
  /// primary's own rejection of that delta — the record is logged and
  /// the position still advances, exactly like recovery replay.
  Result<DeltaApplyResult> ApplyShippedRecord(const std::string& payload);

  /// Client-facing delta entry point. Before promotion: refused with
  /// Status::Unavailable (wire: kNotPrimary, retryable) naming the
  /// primary. After: applied to the local session, which logs it as its
  /// own — the replica's timeline continues the primary's. `trace` is
  /// passed through to InferenceSession::ApplyDelta.
  Result<DeltaApplyResult> ApplyDelta(const EvidenceDelta& delta,
                                      TraceBuilder* trace = nullptr);

  /// Seals the local WAL (fsync) and flips the session writable.
  /// InvalidArgument when no state has arrived yet; AlreadyExists on a
  /// second call (double-promote refusal).
  Status Promote();

  bool promoted() const {
    return promoted_.load(std::memory_order_acquire);
  }
  bool has_state() const {
    return has_state_.load(std::memory_order_acquire);
  }
  /// Primary-timeline position applied so far (wal_base + local records).
  uint64_t position() const {
    return position_.load(std::memory_order_acquire);
  }
  const std::string& primary_addr() const { return primary_addr_; }

  /// The not-primary refusal, shared by every write path.
  Status NotPrimaryError() const;

  /// Direct state access for queries. Callers must hold mu() for the
  /// whole read (the streaming thread mutates between deltas) and must
  /// check session() for null while cold.
  std::mutex& mu() const { return mu_; }
  InferenceSession* session() { return session_.get(); }

 private:
  const MlnProgram& program_;
  SessionOptions options_;
  std::string primary_addr_;

  mutable std::mutex mu_;
  std::unique_ptr<InferenceSession> session_;
  std::atomic<bool> promoted_{false};
  std::atomic<bool> has_state_{false};
  std::atomic<uint64_t> position_{0};
};

}  // namespace tuffy

#endif  // TUFFY_SERVE_REPLICA_SESSION_H_
