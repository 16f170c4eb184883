#include "net/replies.h"

#include <mutex>

#include "exec/tuffy_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/replica_session.h"
#include "util/string_util.h"

namespace tuffy {

namespace {

NetResponse OpenReply(const InferenceSession& session) {
  NetResponse resp;
  resp.type = MsgType::kOpenReply;
  resp.num_atoms = session.atoms().num_atoms();
  resp.num_clauses = session.clauses().size();
  resp.num_components = session.num_components();
  resp.map_cost = session.map_cost();
  return resp;
}

NetResponse MapReply(const MlnProgram& program,
                     const InferenceSession& session,
                     const std::string& predicate) {
  NetResponse resp;
  resp.type = MsgType::kMapReply;
  resp.map_cost = session.map_cost();
  if (!predicate.empty()) {
    auto atoms =
        ExtractTrueAtoms(program, session.atoms(), session.truth(), predicate);
    if (!atoms.ok()) return ErrorReply(atoms.status());
    resp.atoms = atoms.TakeValue();
  }
  return resp;
}

NetResponse MarginalsReply(const MlnProgram& program,
                           const InferenceSession& session,
                           const std::string& predicate) {
  const std::vector<double>& marginals = session.marginals();
  if (marginals.empty()) {
    return ErrorReply(Status::InvalidArgument(
        "session does not track marginals (open it with track_marginals, "
        "tuffy_cli -marginal)"));
  }
  PredicateId pid = kInvalidPredicate;
  if (!predicate.empty()) {
    auto found = program.FindPredicate(predicate);
    if (!found.ok()) return ErrorReply(found.status());
    pid = found.value();
  }
  NetResponse resp;
  resp.type = MsgType::kMarginalsReply;
  const AtomStore& atoms = session.atoms();
  for (AtomId a = 0; a < atoms.num_atoms() && a < marginals.size(); ++a) {
    if (pid != kInvalidPredicate && atoms.atom(a).pred != pid) continue;
    resp.marginals.emplace_back(atoms.atom(a), marginals[a]);
  }
  return resp;
}

NetResponse StatsReply(const InferenceSession& session) {
  const SessionStats& s = session.stats();
  NetResponse resp;
  resp.type = MsgType::kStatsReply;
  resp.stats = {
      {"deltas_applied", static_cast<double>(s.deltas_applied)},
      {"no_op_deltas", static_cast<double>(s.no_op_deltas)},
      {"components_researched",
       static_cast<double>(s.components_researched)},
      {"flips", static_cast<double>(s.flips)},
      {"arena_rebuilds", static_cast<double>(s.arena_rebuilds)},
      {"resident_bytes", static_cast<double>(session.EstimateBytes())},
      {"num_atoms", static_cast<double>(session.atoms().num_atoms())},
      {"num_clauses", static_cast<double>(session.clauses().size())},
      {"num_components", static_cast<double>(session.num_components())},
      {"map_cost", session.map_cost()},
  };
  return resp;
}

NetResponse TraceReply(const InferenceSession& session,
                       const std::string& name) {
  NetResponse resp;
  resp.type = MsgType::kTraceReply;
  for (const DeltaTrace& t : session.RecentTraces()) {
    resp.message += t.Render();
  }
  if (resp.message.empty()) {
    resp.message = "no traces recorded for session " + name + "\n";
  }
  return resp;
}

}  // namespace

NetResponse ErrorReply(const Status& status) {
  NetResponse resp;
  resp.type = MsgType::kError;
  resp.error = WireErrorFromStatus(status);
  resp.retryable = WireErrorRetryable(resp.error);
  resp.message = status.ToString();
  return resp;
}

NetResponse DeltaReply(const Result<DeltaApplyResult>& applied) {
  if (!applied.ok()) return ErrorReply(applied.status());
  const DeltaApplyResult& d = applied.value();
  NetResponse resp;
  resp.type = MsgType::kDeltaReply;
  resp.no_op = d.edits.no_op;
  resp.seq = d.seq;
  resp.components_dirty = d.components_dirty;
  resp.components_total = d.components_total;
  resp.flips = d.flips;
  resp.map_cost = d.map_cost;
  return resp;
}

NetResponse RecoverReply(const InferenceSession& session,
                         const RecoveryStats& stats) {
  NetResponse resp;
  resp.type = MsgType::kRecoverReply;
  resp.recovery = stats;
  resp.map_cost = session.map_cost();
  return resp;
}

NetResponse MetricsReply() {
  NetResponse resp;
  resp.type = MsgType::kMetricsReply;
  resp.message = MetricsRegistry::Global().RenderText();
  return resp;
}

NetResponse ReadReply(const MlnProgram& program,
                      const InferenceSession& session,
                      const NetRequest& request) {
  switch (request.type) {
    case MsgType::kOpenSession:
      return OpenReply(session);
    case MsgType::kQueryMap:
      return MapReply(program, session, request.predicate);
    case MsgType::kQueryMarginals:
      return MarginalsReply(program, session, request.predicate);
    case MsgType::kStats:
      return StatsReply(session);
    case MsgType::kTrace:
      return TraceReply(session, request.session);
    default: {
      NetResponse resp;
      resp.type = MsgType::kError;
      resp.error = WireError::kUnknownMessage;
      resp.message = "unhandled request tag";
      return resp;
    }
  }
}

NetResponse ReplicaReply(const MlnProgram& program, ReplicaSession* replica,
                         const std::string& name, const NetRequest& request,
                         TraceBuilder* trace) {
  if (request.session != name) {
    return ErrorReply(Status::NotFound(
        StrFormat("this replica serves only session '%s'", name.c_str())));
  }
  switch (request.type) {
    case MsgType::kApplyDelta:
      return DeltaReply(replica->ApplyDelta(request.delta, trace));
    case MsgType::kCloseSession:
    case MsgType::kRecover:
      return ErrorReply(Status::InvalidArgument(
          "request not supported on a replica (reads and deltas only)"));
    default:
      break;
  }
  std::lock_guard<std::mutex> lock(replica->mu());
  const InferenceSession* session = replica->session();
  if (session == nullptr) {
    return ErrorReply(Status::Unavailable(
        "replica has no state yet (still bootstrapping)"));
  }
  NetResponse resp = ReadReply(program, *session, request);
  if (resp.type == MsgType::kOpenReply) {
    resp.attached = true;  // the replicated state pre-exists any client
  } else if (resp.type == MsgType::kStatsReply) {
    resp.stats.emplace_back("position",
                            static_cast<double>(replica->position()));
    resp.stats.emplace_back("promoted", replica->promoted() ? 1.0 : 0.0);
  }
  return resp;
}

}  // namespace tuffy
