#include "serve/replica_session.h"

#include <unistd.h>

#include "obs/flight_recorder.h"
#include "util/string_util.h"

namespace tuffy {

ReplicaSession::ReplicaSession(const MlnProgram& program,
                               SessionOptions options,
                               std::string primary_addr)
    : program_(program),
      options_(std::move(options)),
      primary_addr_(std::move(primary_addr)) {}

Result<bool> ReplicaSession::RecoverLocal(ThreadPool* shared_pool,
                                          RecoveryStats* stats) {
  std::lock_guard<std::mutex> lock(mu_);
  if (session_ != nullptr) {
    return Status::InvalidArgument("replica already holds state");
  }
  const std::string wal_path = options_.wal_dir + "/wal.log";
  if (options_.wal_dir.empty() || ::access(wal_path.c_str(), F_OK) != 0) {
    return false;  // cold: nothing durable yet
  }
  TUFFY_ASSIGN_OR_RETURN(
      session_,
      InferenceSession::Recover(program_, options_, shared_pool, stats));
  position_.store(session_->wal_base() + session_->wal_records(),
                  std::memory_order_release);
  has_state_.store(true, std::memory_order_release);
  return true;
}

Status ReplicaSession::BootstrapFromSnapshot(const std::string& payload,
                                             uint64_t primary_position,
                                             ThreadPool* shared_pool) {
  std::lock_guard<std::mutex> lock(mu_);
  if (session_ != nullptr) {
    return Status::InvalidArgument(
        "replica already holds state; re-subscribe from position() instead "
        "of bootstrapping");
  }
  TUFFY_ASSIGN_OR_RETURN(
      session_, InferenceSession::BootstrapFollower(
                    program_, options_, payload, primary_position,
                    shared_pool));
  position_.store(primary_position, std::memory_order_release);
  has_state_.store(true, std::memory_order_release);
  FlightRecorder::Global().Recordf(
      "replica bootstrapped from snapshot at position %llu",
      (unsigned long long)primary_position);
  return Status::OK();
}

Result<DeltaApplyResult> ReplicaSession::ApplyShippedRecord(
    const std::string& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (session_ == nullptr) {
    return Status::InvalidArgument(
        "shipped record before any snapshot/state");
  }
  if (promoted_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument(
        "promoted replica no longer accepts shipped records");
  }
  Result<DeltaApplyResult> applied = session_->ApplyReplicatedRecord(payload);
  // Log-first: even a grounder-rejected delta advanced the local log,
  // mirroring the primary's own timeline.
  position_.store(session_->wal_base() + session_->wal_records(),
                  std::memory_order_release);
  return applied;
}

Result<DeltaApplyResult> ReplicaSession::ApplyDelta(
    const EvidenceDelta& delta, TraceBuilder* trace) {
  if (!promoted_.load(std::memory_order_acquire)) return NotPrimaryError();
  std::lock_guard<std::mutex> lock(mu_);
  if (session_ == nullptr) {
    return Status::Internal("promoted replica lost its session");
  }
  Result<DeltaApplyResult> applied = session_->ApplyDelta(delta, trace);
  position_.store(session_->wal_base() + session_->wal_records(),
                  std::memory_order_release);
  return applied;
}

Status ReplicaSession::Promote() {
  std::lock_guard<std::mutex> lock(mu_);
  if (promoted_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists(
        "replica is already promoted — a second promotion would fork the "
        "timeline");
  }
  if (session_ == nullptr) {
    return Status::InvalidArgument(
        "cannot promote: no replicated state has arrived yet");
  }
  // Seal: every shipped record the follower acked must be durable before
  // this node starts extending the timeline as primary.
  TUFFY_RETURN_IF_ERROR(session_->SyncWal());
  promoted_.store(true, std::memory_order_release);
  FlightRecorder::Global().Recordf(
      "replica promoted at position %llu (was following %s)",
      (unsigned long long)position_.load(std::memory_order_relaxed),
      primary_addr_.c_str());
  return Status::OK();
}

Status ReplicaSession::NotPrimaryError() const {
  return Status::Unavailable(
      StrFormat("not primary; apply deltas at %s", primary_addr_.c_str()));
}

}  // namespace tuffy
