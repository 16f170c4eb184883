#include "serve/session_manager.h"

#include "util/string_util.h"

namespace tuffy {

SessionManager::SessionManager(SessionManagerOptions options)
    : options_(options), pool_(MakeWorkerPool(options.num_threads)) {}

SessionManager::~SessionManager() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_.wait(lock, [this] {
    for (const auto& [name, entry] : sessions_) {
      if (entry.in_flight > 0) return false;
    }
    return true;
  });
  // Sessions submit to pool_; destroy them before the pool goes away.
  sessions_.clear();
}

void SessionManager::Recharge(Entry* entry, size_t bytes) {
  resident_bytes_ -= entry->charged_bytes;
  resident_bytes_ += bytes;
  entry->charged_bytes = bytes;
}

void SessionManager::ApplyDurabilityPolicy(const std::string& name,
                                           SessionOptions* options) const {
  if (options_.durability_root.empty()) return;
  options->wal_dir = options_.durability_root + "/" + name;
  options->snapshot_every = options_.snapshot_every;
  options->wal_fsync = options_.wal_fsync;
}

Result<InferenceSession*> SessionManager::Admit(
    const std::string& name, std::unique_ptr<InferenceSession> session) {
  const size_t bytes = session->EstimateBytes();
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.memory_budget_bytes > 0 &&
      resident_bytes_ + bytes > options_.memory_budget_bytes) {
    sessions_.erase(name);
    return Status::ResourceExhausted(StrFormat(
        "session %s needs %zu resident bytes; %llu of %llu budget in use",
        name.c_str(), bytes,
        static_cast<unsigned long long>(resident_bytes_),
        static_cast<unsigned long long>(options_.memory_budget_bytes)));
  }
  resident_bytes_ += bytes;
  Entry& entry = sessions_.at(name);
  entry.session = std::move(session);
  entry.charged_bytes = bytes;
  return entry.session.get();
}

Result<InferenceSession*> SessionManager::Open(const std::string& name,
                                               const MlnProgram& program,
                                               const EvidenceDb& evidence,
                                               SessionOptions options) {
  // Reserve the name, then ground and cold-search *outside* the manager
  // lock: opening a large session takes seconds, and holding the lock
  // would stall every concurrent Get/ApplyDelta/Close on other sessions.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sessions_.count(name) > 0) {
      return Status::AlreadyExists("session exists: " + name);
    }
    sessions_.emplace(name, Entry{});  // placeholder: session == nullptr
  }
  auto fail = [&](Status status) -> Result<InferenceSession*> {
    std::lock_guard<std::mutex> lock(mu_);
    sessions_.erase(name);
    return status;
  };

  ApplyDurabilityPolicy(name, &options);
  auto session = std::make_unique<InferenceSession>(program, options);
  Status opened = session->Open(evidence, pool_.get());
  if (!opened.ok()) return fail(std::move(opened));

  return Admit(name, std::move(session));
}

Result<InferenceSession*> SessionManager::Recover(const std::string& name,
                                                  const MlnProgram& program,
                                                  SessionOptions options,
                                                  RecoveryStats* stats) {
  if (options_.durability_root.empty()) {
    return Status::InvalidArgument(
        "SessionManager has no durability_root; nothing to recover from");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sessions_.count(name) > 0) {
      return Status::AlreadyExists("session exists: " + name);
    }
    sessions_.emplace(name, Entry{});
  }

  ApplyDurabilityPolicy(name, &options);
  Result<std::unique_ptr<InferenceSession>> recovered =
      InferenceSession::Recover(program, options, pool_.get(), stats);
  if (!recovered.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    sessions_.erase(name);
    return recovered.status();
  }
  return Admit(name, recovered.TakeValue());
}

Result<InferenceSession*> SessionManager::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(name);
  if (it == sessions_.end() || it->second.session == nullptr) {
    return Status::NotFound("no session: " + name);
  }
  return it->second.session.get();
}

Result<DeltaApplyResult> SessionManager::ApplyDelta(
    const std::string& name, const EvidenceDelta& delta,
    TraceBuilder* trace) {
  InferenceSession* session = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(name);
    if (it == sessions_.end() || it->second.session == nullptr) {
      return Status::NotFound("no session: " + name);
    }
    session = it->second.session.get();
    ++it->second.in_flight;  // pin against Close while we run unlocked
  }
  // The delta runs outside the map lock so independent sessions proceed
  // concurrently on the shared pool. Concurrent deltas to the *same*
  // session are the caller's race, exactly as with any storage engine
  // handle; Close, however, is safe — it drains the pin.
  Result<DeltaApplyResult> result = session->ApplyDelta(delta, trace);
  // Re-measuring walks the whole resident model (EstimateBytes is
  // O(clauses + atoms)), so do it while still pinned but *before*
  // re-taking the manager lock, and skip it when the delta verifiably
  // changed nothing.
  const bool remeasure = result.ok() && !result.value().edits.no_op;
  const size_t bytes = remeasure ? session->EstimateBytes() : 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(name);
    if (it != sessions_.end()) {
      if (--it->second.in_flight == 0) drained_.notify_all();
      if (remeasure) Recharge(&it->second, bytes);
    }
  }
  return result;
}

Status SessionManager::Close(const std::string& name) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = sessions_.find(name);
  if (it == sessions_.end() || it->second.session == nullptr) {
    return Status::NotFound("no session: " + name);
  }
  // Wait out in-flight deltas, re-finding on every wake: a racing Close
  // of the same name may erase the entry first.
  drained_.wait(lock, [this, &name] {
    auto i = sessions_.find(name);
    return i == sessions_.end() || i->second.in_flight == 0;
  });
  it = sessions_.find(name);
  if (it == sessions_.end() || it->second.session == nullptr) {
    return Status::NotFound("no session: " + name);
  }
  resident_bytes_ -= it->second.charged_bytes;
  sessions_.erase(it);
  return Status::OK();
}

size_t SessionManager::num_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

uint64_t SessionManager::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

}  // namespace tuffy
