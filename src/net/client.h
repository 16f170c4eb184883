#ifndef TUFFY_NET_CLIENT_H_
#define TUFFY_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>

#include "net/protocol.h"
#include "util/result.h"
#include "util/rng.h"

namespace tuffy {

/// Backoff schedule for Client::CallWithRetry. Sleeps follow the
/// decorrelated-jitter rule: each wait is uniform in
/// [base_seconds, 3 * previous wait], capped at max_seconds — retries
/// from many clients spread out instead of thundering in lockstep.
struct RetryPolicy {
  /// Total attempts, the first included. 1 = no retry.
  int max_attempts = 6;
  double base_seconds = 0.01;
  double max_seconds = 1.0;
};

/// Blocking client for the net/server.h wire protocol. One TCP
/// connection; not thread-safe — give each thread its own Client.
///
/// Two usage styles:
///  - synchronous: the convenience wrappers (OpenSession, ApplyDelta,
///    ...) send one request and block for its reply;
///  - pipelined: Send() any number of requests back to back, then
///    Receive() replies in arrival order. Within one session the server
///    guarantees application (and therefore reply) order matches send
///    order; match replies to requests by request_id.
///
/// A reply of type MsgType::kError is a *successful* call at this
/// layer: the Result is OK and the NetResponse carries the wire error
/// (check `resp.error`, and `resp.retryable` for kOverloaded /
/// kResourceExhausted). Non-OK Results mean transport trouble —
/// connect, send, or receive failed, or the stream is corrupt.
class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept
      : fd_(other.fd_),
        in_(std::move(other.in_)),
        next_request_id_(other.next_request_id_) {
    other.fd_ = -1;
  }
  Client& operator=(Client&& other) noexcept {
    if (this != &other) {
      Disconnect();
      fd_ = other.fd_;
      in_ = std::move(other.in_);
      next_request_id_ = other.next_request_id_;
      other.fd_ = -1;
    }
    return *this;
  }

  Status Connect(const std::string& host, uint16_t port);
  void Disconnect();
  bool connected() const { return fd_ >= 0; }
  /// The raw socket, for tests that cut the connection mid-request.
  int fd() const { return fd_; }

  /// Sends one framed request without waiting for the reply. A zero
  /// request_id is replaced with a fresh one; the assigned id is
  /// returned either way.
  Result<uint64_t> Send(NetRequest request);
  /// Blocks for the next response frame, whatever request it answers.
  Result<NetResponse> Receive();
  /// Send + Receive, checking the reply answers this request.
  Result<NetResponse> Call(NetRequest request);

  /// Call, retrying (with the policy's backoff) every reply whose wire
  /// error is marked retryable — kOverloaded, kResourceExhausted, and
  /// kNotPrimary, all refused before touching session state, so a
  /// resend is always safe. Transport errors are NOT retried: this
  /// client has no reconnect logic, and a died connection may have
  /// applied the request. Retries count under net.client.retry.count.
  /// Returns the last reply when attempts run out.
  Result<NetResponse> CallWithRetry(const NetRequest& request,
                                    const RetryPolicy& policy = RetryPolicy{});

  /// Frames and sends an already-encoded payload (the replication
  /// handshake and acks, whose codecs live in repl/repl_protocol.h).
  Status SendPayload(const std::string& payload);

  /// Blocks up to `timeout_ms` (negative = forever, in recv with no poll)
  /// for one complete frame and returns its verified payload undecoded —
  /// Receive's frame source, and the follower's pull point for
  /// replication pushes, which are not NetResponses. NotFound means the
  /// timeout elapsed with no frame (the heartbeat-miss signal); IOError /
  /// Corruption mean the connection is unusable.
  Result<std::string> ReceiveFrame(int timeout_ms);

  // ---- convenience wrappers (synchronous) ----
  /// `program_fp`: pass ProgramFingerprint(program) so the server can
  /// reject a mismatched program (0 skips the check).
  Result<NetResponse> OpenSession(const std::string& session,
                                  uint64_t program_fp = 0);
  Result<NetResponse> ApplyDelta(const std::string& session,
                                 const EvidenceDelta& delta);
  Result<NetResponse> QueryMap(const std::string& session,
                               const std::string& predicate = "");
  Result<NetResponse> QueryMarginals(const std::string& session,
                                     const std::string& predicate = "");
  Result<NetResponse> CloseSession(const std::string& session);
  Result<NetResponse> Recover(const std::string& session);
  /// Session counters, or server-wide metrics when `session` is empty.
  Result<NetResponse> Stats(const std::string& session = "");
  /// Prometheus-style text of the server's metrics registry
  /// (resp.message). Answered inline by the event loop, so it works
  /// even when the job queue is saturated.
  Result<NetResponse> Metrics();
  /// Rendered span trees of the session's recent deltas (resp.message).
  Result<NetResponse> Trace(const std::string& session);

 private:
  int fd_ = -1;
  std::string in_;
  uint64_t next_request_id_ = 1;
  size_t max_frame_bytes_ = kDefaultMaxFrameBytes;
  /// Jitter source for CallWithRetry; the fixed seed keeps a single
  /// client's schedule reproducible while distinct sleep draws still
  /// decorrelate concurrent clients (each draw depends on the previous
  /// sleep, which depends on server timing).
  Rng retry_rng_{0x7265747279ull};  // "retry"
};

}  // namespace tuffy

#endif  // TUFFY_NET_CLIENT_H_
