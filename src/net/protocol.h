#ifndef TUFFY_NET_PROTOCOL_H_
#define TUFFY_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "durability/wal.h"
#include "mln/model.h"
#include "serve/delta_grounder.h"
#include "serve/inference_session.h"
#include "util/result.h"

namespace tuffy {

/// Wire protocol of the network serving front end (docs/SERVING.md,
/// "Network front end"). Every message travels in one frame using the
/// WAL's framing discipline (durability/wal.h):
///
///   [u32 crc over payload][u32 payload length][payload bytes]
///
/// crc/len are little-endian; the payload is a BinaryWriter encoding
/// that starts with [u8 message tag][u64 request id]. Request ids are
/// chosen by the client and echoed verbatim in the matching response,
/// so a client may pipeline: several requests can be in flight on one
/// connection, and responses to *different* sessions may return in any
/// order. Responses to one session always return in request order (the
/// server applies a session's requests strictly in arrival order — one
/// in-flight job per session).
///
/// The wire carries numeric ids (PredicateId, ConstantId), not symbol
/// strings: client and server must load the same program, which
/// OpenSession can verify by sending ProgramFingerprint(program).

// ----------------------------------------------------------- messages

enum class MsgType : uint8_t {
  // Requests.
  kOpenSession = 1,  // open (or re-attach to) a named session
  kApplyDelta = 2,   // apply one evidence delta
  kQueryMap = 3,     // MAP cost + true atoms of a predicate
  kQueryMarginals = 4,
  kCloseSession = 5,
  kRecover = 6,  // rebuild a crashed durable session from its WAL dir
  kStats = 7,    // per-session (name set) or server-wide (name empty)
  kMetrics = 8,  // Prometheus-style text of the server's registry
  kTrace = 9,    // rendered recent delta traces of a session
  // Replication (src/repl/repl_protocol.h carries the bodies; the
  // server handles these inline on the event loop, not via workers).
  kSubscribe = 10,  // follower joins the stream at its last position
  kReplAck = 11,    // follower's applied position; one-way, no response

  // Responses.
  kOpenReply = 64,
  kDeltaReply = 65,
  kMapReply = 66,
  kMarginalsReply = 67,
  kCloseReply = 68,
  kRecoverReply = 69,
  kStatsReply = 70,
  kError = 71,
  kMetricsReply = 72,
  kTraceReply = 73,
  // Replication pushes (primary -> follower, unsolicited after
  // kSubscribe is accepted).
  kSnapshotChunk = 74,   // one slice of a bootstrap snapshot payload
  kWalRecords = 75,      // a batch of committed WAL records (empty =
                         // heartbeat carrying the committed position)
  kSubscribeReply = 76,  // handshake outcome: committed position,
                         // whether a snapshot ships first
};

/// Error taxonomy a client can act on. kOverloaded and
/// kResourceExhausted are *retryable*: the request was refused before
/// touching any session state (full job queue / admission budget), so
/// resending it later is always safe.
enum class WireError : uint8_t {
  kNone = 0,
  kOverloaded = 1,         // job queue full; retry after a beat
  kResourceExhausted = 2,  // SessionManager admission refused the session
  kNotFound = 3,
  kAlreadyExists = 4,
  kInvalidArgument = 5,
  kCorruption = 6,
  kUnknownMessage = 7,  // unrecognized tag or malformed body
  kInternal = 8,
  /// This endpoint is a replica: deltas must go to the primary, whose
  /// host:port rides in the error message. Retryable — after a
  /// promotion the same endpoint accepts the identical request.
  kNotPrimary = 9,
};

const char* WireErrorName(WireError e);
bool WireErrorRetryable(WireError e);
/// Maps a serving-layer Status onto the wire taxonomy.
WireError WireErrorFromStatus(const Status& status);

/// A decoded request. One struct for all tags (the unused fields of a
/// given tag stay empty) — the protocol is small enough that a tagged
/// union would cost more in ceremony than it saves in bytes.
struct NetRequest {
  MsgType type = MsgType::kStats;
  uint64_t request_id = 0;
  /// Session name; empty only for server-wide kStats and for kMetrics
  /// (which is always server-wide). kTrace requires a name — traces
  /// live in per-session rings.
  std::string session;
  /// kOpenSession: expected ProgramFingerprint, 0 = don't check.
  uint64_t program_fp = 0;
  /// kApplyDelta payload.
  EvidenceDelta delta;
  /// kQueryMap / kQueryMarginals: predicate name ("" = cost only).
  std::string predicate;
};

/// A decoded response; same one-struct convention as NetRequest.
struct NetResponse {
  MsgType type = MsgType::kError;
  uint64_t request_id = 0;

  // kError. `message` doubles as the text body of kMetricsReply
  // (Prometheus exposition) and kTraceReply (rendered span trees).
  WireError error = WireError::kNone;
  bool retryable = false;
  std::string message;

  // kOpenReply.
  bool attached = false;  // name already existed; state is the live one
  uint64_t num_atoms = 0;
  uint64_t num_clauses = 0;
  uint64_t num_components = 0;

  // kDeltaReply.
  bool no_op = false;
  /// Session-wide delta sequence number (stats().deltas_applied after
  /// this delta): strictly increasing in server application order, the
  /// pipelined-ordering observable.
  uint64_t seq = 0;
  uint64_t components_dirty = 0;
  uint64_t components_total = 0;
  uint64_t flips = 0;

  /// kOpenReply / kDeltaReply / kMapReply / kRecoverReply.
  double map_cost = 0.0;

  // kMapReply: true atoms of the requested predicate.
  std::vector<GroundAtom> atoms;

  // kMarginalsReply.
  std::vector<std::pair<GroundAtom, double>> marginals;

  // kStatsReply: flat key -> value metric pairs.
  std::vector<std::pair<std::string, double>> stats;

  // kRecoverReply.
  RecoveryStats recovery;
};

// ------------------------------------------------------------ framing

// The frame codec (EncodeFrame, TryDecodeFrame) is the WAL's, in
// durability/wal.h.

/// Default cap on a single frame's payload. A peer announcing a larger
/// frame is a protocol violation and the connection is dropped — the
/// length field is attacker-controlled bytes and must never size an
/// allocation unchecked.
constexpr size_t kDefaultMaxFrameBytes = 16u << 20;

// ------------------------------------------------------------- codecs

/// Serializes a request/response into an (unframed) payload.
std::string EncodeRequest(const NetRequest& req);
std::string EncodeResponse(const NetResponse& resp);

/// Parses a payload. InvalidArgument on an unknown tag or a body that
/// does not match the tag's layout (the frame CRC already vouched for
/// the bytes, so failure means a software mismatch, not corruption).
Result<NetRequest> DecodeRequest(const std::string& payload);
Result<NetResponse> DecodeResponse(const std::string& payload);

/// Best-effort request id of a payload that may fail full decode, so
/// an error response can still echo it (0 if the payload is too short).
uint64_t PeekRequestId(const std::string& payload);

}  // namespace tuffy

#endif  // TUFFY_NET_PROTOCOL_H_
