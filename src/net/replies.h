#ifndef TUFFY_NET_REPLIES_H_
#define TUFFY_NET_REPLIES_H_

#include <string>

#include "net/protocol.h"

namespace tuffy {

class ReplicaSession;

/// The one set of reply builders for served-session requests. Every
/// front end of a session answers through these — the net Server over
/// its SessionManager or over a hot standby, and tuffy_cli's in-process
/// and -follow REPLs — so a command means the same thing however the
/// session is reached (docs/SERVING.md, "tuffy_cli REPL"). Builders read
/// the session by const reference and move atom lists into the reply;
/// the caller serializes against concurrent deltas (the Server's
/// per-session lane, the replica's mutex, the REPL's single thread).
/// Replies leave request_id at 0 for the caller to stamp.

/// kError carrying `status` mapped onto the wire taxonomy.
NetResponse ErrorReply(const Status& status);

/// kDeltaReply for an applied delta, or kError when applying failed.
NetResponse DeltaReply(const Result<DeltaApplyResult>& applied);

/// kRecoverReply: what recovery found, plus the recovered MAP cost.
NetResponse RecoverReply(const InferenceSession& session,
                         const RecoveryStats& stats);

/// kMetricsReply: this process's metrics registry as Prometheus text.
NetResponse MetricsReply();

/// Answers a read of `session`: kOpenSession (the open reply, with
/// `attached` left false for the caller to set), kQueryMap,
/// kQueryMarginals, kStats, and kTrace. Any other tag is a kError.
NetResponse ReadReply(const MlnProgram& program,
                      const InferenceSession& session,
                      const NetRequest& request);

/// Answers `request` against a hot standby that serves only the session
/// called `name`. Reads take the replica's mutex and are refused while
/// no state has arrived; deltas go through ReplicaSession::ApplyDelta's
/// not-primary gate (a retryable kNotPrimary until promotion). Close and
/// recover are refused: the replica's lifecycle belongs to the follower.
NetResponse ReplicaReply(const MlnProgram& program, ReplicaSession* replica,
                         const std::string& name, const NetRequest& request,
                         TraceBuilder* trace = nullptr);

}  // namespace tuffy

#endif  // TUFFY_NET_REPLIES_H_
