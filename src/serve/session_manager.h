#ifndef TUFFY_SERVE_SESSION_MANAGER_H_
#define TUFFY_SERVE_SESSION_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "serve/inference_session.h"
#include "util/thread_pool.h"

namespace tuffy {

struct SessionManagerOptions {
  /// Workers of the shared search/MC-SAT pool all sessions submit to.
  /// 1 means run inline (no pool thread).
  int num_threads = 1;
  /// Admission budget for the summed resident footprint of all open
  /// sessions, in bytes. 0 = unlimited. A session whose post-open
  /// footprint would push the total past the budget is refused with
  /// ResourceExhausted (and torn down); growth of already-admitted
  /// sessions is re-measured after every delta and reflected in
  /// resident_bytes(), gating *future* admissions.
  uint64_t memory_budget_bytes = 0;
  /// Durability root. When non-empty, every session opened through this
  /// manager logs to `<durability_root>/<name>/` (per-session WAL +
  /// snapshots), with the cadence policy below; Recover() rebuilds a
  /// crashed session from the same directory. Empty = volatile sessions.
  std::string durability_root;
  /// Snapshot cadence applied to every durable session (see
  /// SessionOptions::snapshot_every).
  uint32_t snapshot_every = 0;
  /// fsync policy applied to every durable session.
  bool wal_fsync = true;
};

/// Owns the concurrent serving state: named long-lived sessions, the
/// shared ThreadPool their dirty-component re-search and MC-SAT refresh
/// run on, and admission control over the summed resident bytes of the
/// open sessions, an account this manager owns (resident_bytes()).
class SessionManager {
 public:
  explicit SessionManager(SessionManagerOptions options);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Opens (grounds + cold-searches) a session. `program` must outlive
  /// it. Fails with AlreadyExists on a duplicate name and with
  /// ResourceExhausted when the memory budget cannot admit the session's
  /// resident state.
  Result<InferenceSession*> Open(const std::string& name,
                                 const MlnProgram& program,
                                 const EvidenceDb& evidence,
                                 SessionOptions options);

  /// Re-admits a crashed durable session from its WAL directory under
  /// `durability_root` (snapshot load + WAL replay instead of grounding
  /// + cold search; see InferenceSession::Recover). Same admission
  /// control and naming rules as Open. `stats`, if non-null, receives
  /// what recovery found.
  Result<InferenceSession*> Recover(const std::string& name,
                                    const MlnProgram& program,
                                    SessionOptions options,
                                    RecoveryStats* stats = nullptr);

  /// Read access to a session. The pointer stays valid until Close; a
  /// caller that may race with Close must route work through ApplyDelta
  /// (which pins the session in-flight) rather than hold this pointer.
  Result<InferenceSession*> Get(const std::string& name) const;

  /// Applies a delta to the named session and re-measures its resident
  /// charge. `trace`, if non-null, collects the delta's lifecycle spans
  /// (see InferenceSession::ApplyDelta).
  Result<DeltaApplyResult> ApplyDelta(const std::string& name,
                                      const EvidenceDelta& delta,
                                      TraceBuilder* trace = nullptr);

  /// Closes the session, releasing its memory charge. Blocks until
  /// in-flight ApplyDelta calls on the session drain (they hold a pin,
  /// not the manager lock), so teardown never races live work.
  Status Close(const std::string& name);

  size_t num_sessions() const;
  /// Summed measured resident bytes across open sessions.
  uint64_t resident_bytes() const;

 private:
  struct Entry {
    std::unique_ptr<InferenceSession> session;
    size_t charged_bytes = 0;
    /// ApplyDelta calls currently running on this session; Close waits
    /// for zero before destroying it.
    int in_flight = 0;
  };

  void Recharge(Entry* entry, size_t bytes);

  /// Stamps the manager-level durability policy (per-session wal_dir
  /// under durability_root, cadence, fsync) into `options`. No-op when
  /// the manager is volatile.
  void ApplyDurabilityPolicy(const std::string& name,
                             SessionOptions* options) const;

  /// Shared tail of Open and Recover: admission-check and register the
  /// built session under its reserved name.
  Result<InferenceSession*> Admit(const std::string& name,
                                  std::unique_ptr<InferenceSession> session);

  SessionManagerOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  mutable std::mutex mu_;
  std::condition_variable drained_;
  std::unordered_map<std::string, Entry> sessions_;
  uint64_t resident_bytes_ = 0;
};

}  // namespace tuffy

#endif  // TUFFY_SERVE_SESSION_MANAGER_H_
