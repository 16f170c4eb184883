#include "repl/repl_protocol.h"

#include "durability/serialize.h"

namespace tuffy {

namespace {

void PutStr(BinaryWriter* w, const std::string& s) {
  w->U32(static_cast<uint32_t>(s.size()));
  w->Bytes(s.data(), s.size());
}

std::string GetStr(BinaryReader* r) {
  uint32_t n = r->U32();
  if (n > r->remaining()) {  // forged length: never sizes an allocation
    r->Invalidate();
    return std::string();
  }
  std::string s(n, '\0');
  if (n > 0) r->Bytes(s.data(), n);
  return s;
}

void PutHeader(BinaryWriter* w, MsgType tag, uint64_t request_id) {
  w->U8(static_cast<uint8_t>(tag));
  w->U64(request_id);
}

/// Validates the tag and returns the request id, invalidating on
/// mismatch.
uint64_t GetHeader(BinaryReader* r, MsgType expected) {
  if (r->U8() != static_cast<uint8_t>(expected)) r->Invalidate();
  return r->U64();
}

/// The header of a push or of the one-way ack, whose encoders write
/// request id 0: any other id is refused, so a decoded message encodes
/// back to the same bytes.
void GetUnsolicitedHeader(BinaryReader* r, MsgType expected) {
  if (GetHeader(r, expected) != 0) r->Invalidate();
}

/// A flag byte: 0 or 1, anything else invalidates.
bool GetFlag(BinaryReader* r) {
  const uint8_t b = r->U8();
  if (b > 1) r->Invalidate();
  return b == 1;
}

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed ") + what +
                                 " payload");
}

}  // namespace

std::string EncodeReplSubscribe(const ReplSubscribe& msg) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kSubscribe, msg.request_id);
  PutStr(&w, msg.session);
  w.U64(msg.position);
  w.U8(msg.has_state ? 1 : 0);
  return w.Take();
}

Result<ReplSubscribe> DecodeReplSubscribe(const std::string& payload) {
  BinaryReader r(payload);
  ReplSubscribe msg;
  msg.request_id = GetHeader(&r, MsgType::kSubscribe);
  msg.session = GetStr(&r);
  msg.position = r.U64();
  msg.has_state = GetFlag(&r);
  if (!r.ok() || !r.Exhausted()) return Malformed("kSubscribe");
  return msg;
}

std::string EncodeReplSubscribeReply(const ReplSubscribeReply& msg) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kSubscribeReply, msg.request_id);
  w.U64(msg.committed);
  w.U8(msg.snapshot ? 1 : 0);
  w.U64(msg.snapshot_position);
  w.U64(msg.snapshot_bytes);
  return w.Take();
}

Result<ReplSubscribeReply> DecodeReplSubscribeReply(
    const std::string& payload) {
  BinaryReader r(payload);
  ReplSubscribeReply msg;
  msg.request_id = GetHeader(&r, MsgType::kSubscribeReply);
  msg.committed = r.U64();
  msg.snapshot = GetFlag(&r);
  msg.snapshot_position = r.U64();
  msg.snapshot_bytes = r.U64();
  if (!r.ok() || !r.Exhausted()) return Malformed("kSubscribeReply");
  return msg;
}

std::string EncodeReplSnapshotChunk(const ReplSnapshotChunk& msg) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kSnapshotChunk, 0);
  w.U64(msg.offset);
  w.U64(msg.position);
  w.U8(msg.last ? 1 : 0);
  PutStr(&w, msg.bytes);
  return w.Take();
}

Result<ReplSnapshotChunk> DecodeReplSnapshotChunk(
    const std::string& payload) {
  BinaryReader r(payload);
  ReplSnapshotChunk msg;
  GetUnsolicitedHeader(&r, MsgType::kSnapshotChunk);
  msg.offset = r.U64();
  msg.position = r.U64();
  msg.last = GetFlag(&r);
  msg.bytes = GetStr(&r);
  if (!r.ok() || !r.Exhausted()) return Malformed("kSnapshotChunk");
  return msg;
}

std::string EncodeReplWalRecords(const ReplWalRecords& msg) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kWalRecords, 0);
  w.U64(msg.first);
  w.U64(msg.committed);
  w.U32(static_cast<uint32_t>(msg.records.size()));
  for (const std::string& rec : msg.records) PutStr(&w, rec);
  return w.Take();
}

Result<ReplWalRecords> DecodeReplWalRecords(const std::string& payload) {
  BinaryReader r(payload);
  ReplWalRecords msg;
  GetUnsolicitedHeader(&r, MsgType::kWalRecords);
  msg.first = r.U64();
  msg.committed = r.U64();
  const uint32_t n = r.U32();
  if (!r.ok() || n > r.remaining()) return Malformed("kWalRecords");
  msg.records.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    msg.records.push_back(GetStr(&r));
    if (!r.ok()) return Malformed("kWalRecords");
  }
  if (!r.ok() || !r.Exhausted()) return Malformed("kWalRecords");
  return msg;
}

std::string EncodeReplAck(const ReplAck& msg) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kReplAck, 0);
  PutStr(&w, msg.session);
  w.U64(msg.position);
  return w.Take();
}

Result<ReplAck> DecodeReplAck(const std::string& payload) {
  BinaryReader r(payload);
  ReplAck msg;
  GetUnsolicitedHeader(&r, MsgType::kReplAck);
  msg.session = GetStr(&r);
  msg.position = r.U64();
  if (!r.ok() || !r.Exhausted()) return Malformed("kReplAck");
  return msg;
}

}  // namespace tuffy
