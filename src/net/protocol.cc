#include "net/protocol.h"

#include <cstring>

#include "durability/serialize.h"

namespace tuffy {

const char* WireErrorName(WireError e) {
  switch (e) {
    case WireError::kNone: return "None";
    case WireError::kOverloaded: return "Overloaded";
    case WireError::kResourceExhausted: return "ResourceExhausted";
    case WireError::kNotFound: return "NotFound";
    case WireError::kAlreadyExists: return "AlreadyExists";
    case WireError::kInvalidArgument: return "InvalidArgument";
    case WireError::kCorruption: return "Corruption";
    case WireError::kUnknownMessage: return "UnknownMessage";
    case WireError::kInternal: return "Internal";
    case WireError::kNotPrimary: return "NotPrimary";
  }
  return "Internal";
}

bool WireErrorRetryable(WireError e) {
  return e == WireError::kOverloaded ||
         e == WireError::kResourceExhausted || e == WireError::kNotPrimary;
}

WireError WireErrorFromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return WireError::kNone;
    case StatusCode::kNotFound: return WireError::kNotFound;
    case StatusCode::kAlreadyExists: return WireError::kAlreadyExists;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
    case StatusCode::kParseError: return WireError::kInvalidArgument;
    case StatusCode::kResourceExhausted: return WireError::kResourceExhausted;
    case StatusCode::kCorruption: return WireError::kCorruption;
    case StatusCode::kUnavailable: return WireError::kNotPrimary;
    default: return WireError::kInternal;
  }
}

// ------------------------------------------------------------- codecs

namespace {

void PutString(BinaryWriter* w, const std::string& s) {
  w->U32(static_cast<uint32_t>(s.size()));
  w->Bytes(s.data(), s.size());
}

std::string GetString(BinaryReader* r) {
  uint32_t n = r->U32();
  if (n > r->remaining()) {  // forged length: never sizes an allocation
    r->Invalidate();
    return std::string();
  }
  std::string s(n, '\0');
  if (n > 0) r->Bytes(s.data(), n);
  return s;
}

void PutHeader(BinaryWriter* w, MsgType type, uint64_t request_id) {
  w->U8(static_cast<uint8_t>(type));
  w->U64(request_id);
}

}  // namespace

std::string EncodeRequest(const NetRequest& req) {
  BinaryWriter w;
  PutHeader(&w, req.type, req.request_id);
  switch (req.type) {
    case MsgType::kOpenSession:
      PutString(&w, req.session);
      w.U64(req.program_fp);
      break;
    case MsgType::kApplyDelta: {
      PutString(&w, req.session);
      EncodeEvidenceDelta(req.delta, &w);
      break;
    }
    case MsgType::kQueryMap:
    case MsgType::kQueryMarginals:
      PutString(&w, req.session);
      PutString(&w, req.predicate);
      break;
    case MsgType::kCloseSession:
    case MsgType::kRecover:
    case MsgType::kStats:
    case MsgType::kMetrics:
    case MsgType::kTrace:
      PutString(&w, req.session);
      break;
    default:
      break;  // not a request tag; DecodeRequest rejects it
  }
  return w.Take();
}

Result<NetRequest> DecodeRequest(const std::string& payload) {
  BinaryReader r(payload);
  NetRequest req;
  req.type = static_cast<MsgType>(r.U8());
  req.request_id = r.U64();
  switch (req.type) {
    case MsgType::kOpenSession:
      req.session = GetString(&r);
      req.program_fp = r.U64();
      break;
    case MsgType::kApplyDelta: {
      req.session = GetString(&r);
      DecodeEvidenceDelta(&r, &req.delta);
      break;
    }
    case MsgType::kQueryMap:
    case MsgType::kQueryMarginals:
      req.session = GetString(&r);
      req.predicate = GetString(&r);
      break;
    case MsgType::kCloseSession:
    case MsgType::kRecover:
    case MsgType::kStats:
    case MsgType::kMetrics:
    case MsgType::kTrace:
      req.session = GetString(&r);
      break;
    default:
      return Status::InvalidArgument(
          "unknown request tag " +
          std::to_string(static_cast<int>(req.type)));
  }
  if (!r.Exhausted()) {
    return Status::InvalidArgument("malformed request body");
  }
  return req;
}

std::string EncodeResponse(const NetResponse& resp) {
  BinaryWriter w;
  PutHeader(&w, resp.type, resp.request_id);
  switch (resp.type) {
    case MsgType::kError:
      w.U8(static_cast<uint8_t>(resp.error));
      w.U8(resp.retryable ? 1 : 0);
      PutString(&w, resp.message);
      break;
    case MsgType::kOpenReply:
      w.U8(resp.attached ? 1 : 0);
      w.U64(resp.num_atoms);
      w.U64(resp.num_clauses);
      w.U64(resp.num_components);
      w.F64(resp.map_cost);
      break;
    case MsgType::kDeltaReply:
      w.U8(resp.no_op ? 1 : 0);
      w.U64(resp.seq);
      w.U64(resp.components_dirty);
      w.U64(resp.components_total);
      w.U64(resp.flips);
      w.F64(resp.map_cost);
      break;
    case MsgType::kMapReply:
      w.F64(resp.map_cost);
      w.U32(static_cast<uint32_t>(resp.atoms.size()));
      for (const GroundAtom& atom : resp.atoms) EncodeGroundAtom(atom, &w);
      break;
    case MsgType::kMarginalsReply:
      w.U32(static_cast<uint32_t>(resp.marginals.size()));
      for (const auto& [atom, p] : resp.marginals) {
        EncodeGroundAtom(atom, &w);
        w.F64(p);
      }
      break;
    case MsgType::kCloseReply:
      break;
    case MsgType::kRecoverReply:
      w.U64(resp.recovery.snapshots_tried);
      w.U64(resp.recovery.snapshot_seq);
      w.U64(resp.recovery.wal_records_total);
      w.U64(resp.recovery.records_replayed);
      w.U64(resp.recovery.records_skipped);
      w.U64(resp.recovery.bytes_scanned);
      w.U64(resp.recovery.truncated_bytes);
      w.F64(resp.map_cost);
      break;
    case MsgType::kStatsReply:
      w.U32(static_cast<uint32_t>(resp.stats.size()));
      for (const auto& [key, value] : resp.stats) {
        PutString(&w, key);
        w.F64(value);
      }
      break;
    case MsgType::kMetricsReply:
    case MsgType::kTraceReply:
      PutString(&w, resp.message);
      break;
    default:
      break;
  }
  return w.Take();
}

Result<NetResponse> DecodeResponse(const std::string& payload) {
  BinaryReader r(payload);
  NetResponse resp;
  resp.type = static_cast<MsgType>(r.U8());
  resp.request_id = r.U64();
  switch (resp.type) {
    case MsgType::kError:
      resp.error = static_cast<WireError>(r.U8());
      resp.retryable = r.U8() != 0;
      resp.message = GetString(&r);
      break;
    case MsgType::kOpenReply:
      resp.attached = r.U8() != 0;
      resp.num_atoms = r.U64();
      resp.num_clauses = r.U64();
      resp.num_components = r.U64();
      resp.map_cost = r.F64();
      break;
    case MsgType::kDeltaReply:
      resp.no_op = r.U8() != 0;
      resp.seq = r.U64();
      resp.components_dirty = r.U64();
      resp.components_total = r.U64();
      resp.flips = r.U64();
      resp.map_cost = r.F64();
      break;
    case MsgType::kMapReply: {
      resp.map_cost = r.F64();
      uint32_t n = r.U32();
      GroundAtom atom;
      for (uint32_t i = 0; i < n && DecodeGroundAtom(&r, &atom); ++i) {
        resp.atoms.push_back(atom);
      }
      break;
    }
    case MsgType::kMarginalsReply: {
      uint32_t n = r.U32();
      GroundAtom atom;
      for (uint32_t i = 0; i < n && DecodeGroundAtom(&r, &atom); ++i) {
        const double p = r.F64();
        resp.marginals.emplace_back(atom, p);
      }
      break;
    }
    case MsgType::kCloseReply:
      break;
    case MsgType::kRecoverReply:
      resp.recovery.snapshots_tried = r.U64();
      resp.recovery.snapshot_seq = r.U64();
      resp.recovery.wal_records_total = r.U64();
      resp.recovery.records_replayed = r.U64();
      resp.recovery.records_skipped = r.U64();
      resp.recovery.bytes_scanned = r.U64();
      resp.recovery.truncated_bytes = r.U64();
      resp.map_cost = r.F64();
      break;
    case MsgType::kStatsReply: {
      uint32_t n = r.U32();
      for (uint32_t i = 0; i < n && r.ok(); ++i) {
        std::string key = GetString(&r);
        double value = r.F64();
        resp.stats.emplace_back(std::move(key), value);
      }
      break;
    }
    case MsgType::kMetricsReply:
    case MsgType::kTraceReply:
      resp.message = GetString(&r);
      break;
    default:
      return Status::InvalidArgument(
          "unknown response tag " +
          std::to_string(static_cast<int>(resp.type)));
  }
  if (!r.Exhausted()) {
    return Status::InvalidArgument("malformed response body");
  }
  return resp;
}

uint64_t PeekRequestId(const std::string& payload) {
  if (payload.size() < 9) return 0;
  uint64_t id;
  std::memcpy(&id, payload.data() + 1, sizeof(id));
  return id;
}

}  // namespace tuffy
