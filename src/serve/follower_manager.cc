#include "serve/follower_manager.h"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>

#include "net/client.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "repl/repl_protocol.h"
#include "util/fault_points.h"
#include "util/rng.h"

namespace tuffy {

const char* FollowerStateName(FollowerState s) {
  switch (s) {
    case FollowerState::kConnecting: return "connecting";
    case FollowerState::kBootstrapping: return "bootstrapping";
    case FollowerState::kStreaming: return "streaming";
    case FollowerState::kPromoted: return "promoted";
    case FollowerState::kStopped: return "stopped";
  }
  return "unknown";
}

FollowerManager::FollowerManager(const MlnProgram& program,
                                 FollowerOptions options)
    : options_(std::move(options)),
      replica_(program, options_.session_options,
               options_.primary_host + ":" +
                   std::to_string(options_.primary_port)) {}

FollowerManager::~FollowerManager() { Stop(); }

Status FollowerManager::Start() {
  if (started_) return Status::InvalidArgument("follower already started");
  if (options_.session_options.wal_dir.empty()) {
    return Status::InvalidArgument(
        "a follower requires session_options.wal_dir — it exists to hold "
        "a durable copy");
  }
  // Warm restart: local durable state decides the subscribe position.
  TUFFY_ASSIGN_OR_RETURN(bool warm, replica_.RecoverLocal());
  if (warm) {
    FlightRecorder::Global().Recordf(
        "follower warm restart at position %llu",
        (unsigned long long)replica_.position());
  }
  stop_.store(false, std::memory_order_release);
  state_.store(static_cast<int>(FollowerState::kConnecting),
               std::memory_order_release);
  thread_ = std::thread(&FollowerManager::Run, this);
  started_ = true;
  return Status::OK();
}

void FollowerManager::Stop() {
  stop_.store(true, std::memory_order_release);
  const int fd = live_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);  // unblock the thread's poll
  if (thread_.joinable()) thread_.join();
  started_ = false;
  if (state() != FollowerState::kPromoted) {
    state_.store(static_cast<int>(FollowerState::kStopped),
                 std::memory_order_release);
  }
}

Result<uint64_t> FollowerManager::Promote() {
  Stop();
  TUFFY_RETURN_IF_ERROR(replica_.Promote());
  state_.store(static_cast<int>(FollowerState::kPromoted),
               std::memory_order_release);
  return replica_.position();
}

void FollowerManager::Run() {
  static Counter* reconnect_count =
      MetricsRegistry::Global().GetCounter("repl.reconnect.count");
  Rng jitter(0x666f6c6c6f77ull);  // "follow"
  double backoff = options_.reconnect_base_seconds;
  bool first = true;
  while (!stop_.load(std::memory_order_acquire)) {
    if (!first) {
      reconnects_.fetch_add(1, std::memory_order_acq_rel);
      reconnect_count->Add(1);
      // Decorrelated jitter: a fleet of followers does not reconnect in
      // lockstep.
      backoff = NextBackoff(backoff, options_.reconnect_base_seconds,
                            options_.reconnect_max_seconds, &jitter);
      // Sleep in slices so Stop() stays responsive.
      double slept = 0.0;
      while (slept < backoff && !stop_.load(std::memory_order_acquire)) {
        const double slice = std::min(0.05, backoff - slept);
        std::this_thread::sleep_for(std::chrono::duration<double>(slice));
        slept += slice;
      }
      if (stop_.load(std::memory_order_acquire)) break;
    }
    first = false;
    RunOnce();
  }
  if (state() != FollowerState::kPromoted) {
    state_.store(static_cast<int>(FollowerState::kStopped),
                 std::memory_order_release);
  }
}

void FollowerManager::RunOnce() {
  static Counter* applied_count =
      MetricsRegistry::Global().GetCounter("repl.records.applied");
  static Counter* hb_missed =
      MetricsRegistry::Global().GetCounter("repl.heartbeat.missed.count");
  static Counter* acks_dropped =
      MetricsRegistry::Global().GetCounter("repl.acks.dropped");

  state_.store(static_cast<int>(FollowerState::kConnecting),
               std::memory_order_release);
  Client client;
  if (!client.Connect(options_.primary_host, options_.primary_port).ok()) {
    return;
  }
  live_fd_.store(client.fd(), std::memory_order_release);

  ReplSubscribe sub;
  sub.request_id = 1;
  sub.session = options_.session;
  sub.position = replica_.position();
  sub.has_state = replica_.has_state();
  const int hb_ms =
      std::max(1, static_cast<int>(options_.heartbeat_timeout_seconds * 1e3));
  bool ok = client.SendPayload(EncodeReplSubscribe(sub)).ok();

  ReplSubscribeReply reply;
  if (ok) {
    Result<std::string> frame = client.ReceiveFrame(hb_ms);
    if (!frame.ok()) {
      ok = false;
    } else if (!frame.value().empty() &&
               frame.value()[0] ==
                   static_cast<char>(MsgType::kSubscribeReply)) {
      Result<ReplSubscribeReply> r = DecodeReplSubscribeReply(frame.value());
      if (r.ok()) {
        reply = r.TakeValue();
      } else {
        ok = false;
      }
    } else {
      // Typically a kError (session not created on the primary yet, or
      // a non-durable primary). Transient from our side: back off and
      // re-subscribe.
      Result<NetResponse> err = DecodeResponse(frame.value());
      FlightRecorder::Global().Recordf(
          "subscribe refused: %s",
          err.ok() ? err.value().message.c_str() : "undecodable reply");
      ok = false;
    }
  }
  if (!ok) {
    live_fd_.store(-1, std::memory_order_release);
    return;
  }
  primary_committed_.store(reply.committed, std::memory_order_release);
  state_.store(static_cast<int>(reply.snapshot
                                    ? FollowerState::kBootstrapping
                                    : FollowerState::kStreaming),
               std::memory_order_release);

  std::string snapshot;
  if (reply.snapshot) snapshot.reserve(reply.snapshot_bytes);
  uint64_t last_acked = replica_.position();

  auto send_ack = [&]() -> bool {
    const uint64_t pos = replica_.position();
    if (pos == last_acked) return true;
    if (FaultPoints::Global().Hit("repl.ack.drop") != FaultAction::kNone) {
      // Applied but never acked: the primary's lag gauge stays stale
      // until the next ack catches it up cumulatively.
      acks_dropped->Add(1);
      return true;
    }
    ReplAck ack;
    ack.session = options_.session;
    ack.position = pos;
    if (!client.SendPayload(EncodeReplAck(ack)).ok()) return false;
    last_acked = pos;
    return true;
  };

  while (!stop_.load(std::memory_order_acquire)) {
    Result<std::string> frame = client.ReceiveFrame(hb_ms);
    if (!frame.ok()) {
      if (frame.status().code() == StatusCode::kNotFound) {
        hb_missed->Add(1);
        FlightRecorder::Global().Recordf(
            "heartbeat timeout after %.1fs at position %llu — primary "
            "presumed lost, reconnecting",
            options_.heartbeat_timeout_seconds,
            (unsigned long long)replica_.position());
      }
      break;  // torn frame / closed socket: reconnect-and-resume
    }
    const std::string& payload = frame.value();
    const uint8_t tag =
        payload.empty() ? 0 : static_cast<uint8_t>(payload[0]);
    if (tag == static_cast<uint8_t>(MsgType::kSnapshotChunk)) {
      Result<ReplSnapshotChunk> chunk = DecodeReplSnapshotChunk(payload);
      if (!chunk.ok() || chunk.value().offset != snapshot.size()) break;
      snapshot += chunk.value().bytes;
      if (chunk.value().last) {
        Status boot = replica_.BootstrapFromSnapshot(snapshot,
                                                     chunk.value().position);
        if (!boot.ok()) {
          FlightRecorder::Global().Recordf("bootstrap failed: %s",
                                           boot.ToString().c_str());
          break;
        }
        snapshot.clear();
        last_acked = 0;  // force an ack at the bootstrap position
        state_.store(static_cast<int>(FollowerState::kStreaming),
                     std::memory_order_release);
        if (!send_ack()) break;
      }
    } else if (tag == static_cast<uint8_t>(MsgType::kWalRecords)) {
      Result<ReplWalRecords> batch = DecodeReplWalRecords(payload);
      if (!batch.ok()) break;
      primary_committed_.store(batch.value().committed,
                               std::memory_order_release);
      bool stream_ok = true;
      for (size_t i = 0; i < batch.value().records.size(); ++i) {
        const uint64_t record_pos = batch.value().first + i;
        if (record_pos != replica_.position() + 1) {
          // Gap or duplicate: the subscription state diverged from ours;
          // drop the connection and re-subscribe at our exact position.
          stream_ok = false;
          break;
        }
        Result<DeltaApplyResult> applied =
            replica_.ApplyShippedRecord(batch.value().records[i]);
        if (!applied.ok() &&
            applied.status().code() != StatusCode::kInvalidArgument) {
          FlightRecorder::Global().Recordf(
              "shipped record %llu failed: %s",
              (unsigned long long)record_pos,
              applied.status().ToString().c_str());
          stream_ok = false;
          break;
        }
        applied_count->Add(1);
      }
      // Ack cumulatively — also on heartbeats, so an ack lost to the
      // repl.ack.drop fault is healed by the next frame.
      if (!send_ack() || !stream_ok) break;
    } else {
      break;  // protocol violation (or a stray kError): resubscribe
    }
  }
  live_fd_.store(-1, std::memory_order_release);
}

}  // namespace tuffy
