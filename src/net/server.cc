#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <utility>

#include "durability/snapshot.h"
#include "net/replies.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "repl/repl_protocol.h"
#include "repl/repl_source.h"
#include "serve/replica_session.h"
#include "util/fault_points.h"
#include "util/string_util.h"

namespace tuffy {

namespace {

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(std::string("fcntl: ") + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

Server::Server(const MlnProgram& program, const EvidenceDb& evidence,
               ServerOptions options)
    : program_(program), evidence_(evidence), options_(std::move(options)) {
  program_fp_ = ProgramFingerprint(program_);
  // Wire sessions are named; their durable directories come from the
  // manager's durability_root, never from a shared wal_dir.
  options_.session.wal_dir.clear();
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_) return Status::InvalidArgument("server already started");
  if (options_.num_workers > kMaxWorkerThreads) {
    return Status::InvalidArgument(
        StrFormat("num_workers must be at most %d, got %d", kMaxWorkerThreads,
                  options_.num_workers));
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " + options_.host);
  }
  auto fail = [&](const char* what) {
    Status st = Status::IOError(std::string(what) + ": " +
                                std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  };
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, 128) < 0) return fail("listen");
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) < 0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  Status nb = SetNonBlocking(listen_fd_);
  if (!nb.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return nb;
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) return fail("pipe");
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  (void)SetNonBlocking(wake_read_fd_);
  (void)SetNonBlocking(wake_write_fd_);

  SessionManagerOptions mgr;
  // Search parallelism comes from running whole jobs on distinct
  // workers; each session's own search runs inline on its worker.
  mgr.num_threads = 1;
  mgr.memory_budget_bytes = options_.memory_budget_bytes;
  mgr.durability_root = options_.durability_root;
  mgr.snapshot_every = options_.snapshot_every;
  mgr.wal_fsync = options_.wal_fsync;
  manager_ = std::make_unique<SessionManager>(mgr);
  workers_ = std::make_unique<ThreadPool>(
      static_cast<size_t>(options_.num_workers > 0 ? options_.num_workers
                                                   : 1));

  // Registry histograms for wire latency and lane queue wait. The
  // baseline snapshot makes metrics() per-server: sequential servers in
  // one process (the tests) each see only their own samples.
  wire_latency_ = MetricsRegistry::Global().GetHistogram(
      "net.delta.wire.seconds");
  lane_wait_ = MetricsRegistry::Global().GetHistogram(
      "net.lane.queue.wait.seconds");
  wire_latency_base_ = wire_latency_->Snapshot();

  stop_ = false;
  started_ = true;
  loop_thread_ = std::thread(&Server::Loop, this);
  return Status::OK();
}

void Server::Stop() {
  if (!started_) return;
  stop_ = true;
  Wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  // In-flight jobs still reference the manager; let them finish. Their
  // completions land in completions_ and are simply dropped.
  workers_->WaitIdle();
  workers_.reset();
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    completions_.clear();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  listen_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
  started_ = false;
}

void Server::Wake() {
  if (wake_write_fd_ < 0) return;
  char byte = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
  ssize_t ignored = ::write(wake_write_fd_, &byte, 1);
  (void)ignored;
}

// ---------------------------------------------------------- event loop

void Server::Loop() {
  std::vector<pollfd> pfds;
  std::vector<uint64_t> conn_of_pfd;
  while (!stop_.load(std::memory_order_relaxed)) {
    pfds.clear();
    conn_of_pfd.clear();
    pfds.push_back({listen_fd_, POLLIN, 0});
    conn_of_pfd.push_back(0);
    pfds.push_back({wake_read_fd_, POLLIN, 0});
    conn_of_pfd.push_back(0);
    for (const auto& [id, conn] : conns_) {
      short events = POLLIN;
      if (!conn.out.empty()) events |= POLLOUT;
      pfds.push_back({conn.fd, events, 0});
      conn_of_pfd.push_back(id);
    }

    int rc = ::poll(pfds.data(), pfds.size(), /*timeout_ms=*/100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }

    if (pfds[1].revents & POLLIN) {
      char buf[256];
      while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
      }
    }
    // Completions may exist even without a wake byte (pipe full), so
    // drain unconditionally.
    DrainCompletions();

    if (pfds[0].revents & POLLIN) AcceptReady();

    const double now = MonotonicSeconds();
    if (!subs_.empty() &&
        now - last_heartbeat_tick_ >= options_.repl_heartbeat_seconds) {
      last_heartbeat_tick_ = now;
      for (const auto& [id, src] : subs_) {
        (void)src;
        PumpSubscription(id, /*heartbeat=*/true);
      }
    }
    SweepConnections(now);

    std::vector<uint64_t> to_close;
    for (size_t i = 2; i < pfds.size(); ++i) {
      const uint64_t id = conn_of_pfd[i];
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      if (pfds[i].revents & (POLLERR | POLLNVAL)) {
        to_close.push_back(id);
        continue;
      }
      if ((pfds[i].revents & POLLIN) && !ReadReady(id, &it->second)) {
        to_close.push_back(id);
        continue;
      }
      // POLLHUP with readable data still delivers POLLIN first; a bare
      // hangup with nothing to read is a close.
      if ((pfds[i].revents & POLLHUP) && !(pfds[i].revents & POLLIN)) {
        to_close.push_back(id);
        continue;
      }
      if ((pfds[i].revents & POLLOUT) && !WriteReady(&it->second)) {
        to_close.push_back(id);
      }
    }
    for (uint64_t id : to_close) CloseConnection(id);
  }
  for (auto& [id, conn] : conns_) ::close(conn.fd);
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    counters_.connections_open = 0;
  }
  conns_.clear();
}

void Server::AcceptReady() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) break;  // EAGAIN or transient error; poll again
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    int one = 1;
    // Small pipelined frames must not sit out a Nagle window.
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Connection conn;
    conn.fd = fd;
    conn.last_activity = MonotonicSeconds();
    conns_.emplace(next_conn_id_++, std::move(conn));
    std::lock_guard<std::mutex> lock(metrics_mu_);
    ++counters_.connections_accepted;
    ++counters_.connections_open;
  }
}

bool Server::ReadReady(uint64_t conn_id, Connection* conn) {
  char buf[65536];
  bool alive = true;
  while (true) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->in.append(buf, static_cast<size_t>(n));
      conn->last_activity = MonotonicSeconds();
      std::lock_guard<std::mutex> lock(metrics_mu_);
      counters_.bytes_in += static_cast<uint64_t>(n);
      continue;
    }
    if (n == 0) {
      // Orderly shutdown. Frames already buffered still execute — a
      // client may legitimately fire a request and hang up without
      // waiting; only its reply is lost, never the request.
      alive = false;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    alive = false;
    break;
  }

  size_t off = 0;
  while (true) {
    std::string payload;
    size_t consumed = 0;
    FrameDecode fd = TryDecodeFrame(conn->in.data() + off,
                                    conn->in.size() - off,
                                    options_.max_frame_bytes, &payload,
                                    &consumed);
    if (fd == FrameDecode::kFrame) {
      off += consumed;
      HandlePayload(conn_id, payload);
      continue;
    }
    if (fd == FrameDecode::kNeedMore) break;
    // kBadCrc / kTooLarge: the stream is garbage or hostile from here
    // on — there is no way to resynchronize a length-prefixed stream —
    // so the connection dies. Sessions are unaffected.
    std::lock_guard<std::mutex> lock(metrics_mu_);
    ++counters_.protocol_errors;
    return false;
  }
  conn->in.erase(0, off);
  // Read-deadline bookkeeping: an incomplete frame left in the buffer
  // starts (or continues) the half-open clock; an empty buffer clears it.
  if (conn->in.empty()) {
    conn->partial_since = 0.0;
  } else if (conn->partial_since == 0.0) {
    conn->partial_since = MonotonicSeconds();
  }
  return alive;
}

bool Server::WriteReady(Connection* conn) {
  while (!conn->out.empty()) {
    ssize_t n = ::send(conn->fd, conn->out.data(), conn->out.size(),
                       MSG_NOSIGNAL);
    if (n > 0) {
      conn->out.erase(0, static_cast<size_t>(n));
      std::lock_guard<std::mutex> lock(metrics_mu_);
      counters_.bytes_out += static_cast<uint64_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  return true;
}

void Server::CloseConnection(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ::close(it->second.fd);
  conns_.erase(it);
  subs_.erase(conn_id);  // a subscriber's stream dies with its socket
  // Jobs in flight for this connection keep running; their responses
  // are dropped at completion drain. The session itself lives on in
  // the manager — that is the re-attach guarantee.
  std::lock_guard<std::mutex> lock(metrics_mu_);
  --counters_.connections_open;
}

// ------------------------------------------------------------- routing

void Server::HandlePayload(uint64_t conn_id, const std::string& payload) {
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    ++counters_.requests;
  }
  static Counter* request_count =
      MetricsRegistry::Global().GetCounter("serve.request.count");
  request_count->Add(1);
  // Replication frames are handled inline on the loop thread: the
  // handshake only stages files the durability layer already published,
  // and acks just advance a counter — neither needs a worker.
  const uint8_t tag =
      payload.empty() ? 0 : static_cast<uint8_t>(payload[0]);
  if (tag == static_cast<uint8_t>(MsgType::kSubscribe)) {
    HandleSubscribe(conn_id, payload);
    return;
  }
  if (tag == static_cast<uint8_t>(MsgType::kReplAck)) {
    HandleReplAck(conn_id, payload);
    return;
  }
  auto decoded = DecodeRequest(payload);
  if (!decoded.ok()) {
    SendError(conn_id, PeekRequestId(payload), WireError::kUnknownMessage,
              decoded.status().ToString());
    return;
  }
  NetRequest req = decoded.TakeValue();

  // Server-wide stats answer inline on the loop thread: always cheap,
  // and observable even while the job queue is saturated.
  if (req.type == MsgType::kStats && req.session.empty()) {
    NetResponse resp = ServerStatsResponse(req.request_id);
    SendToConnection(conn_id, EncodeFrame(EncodeResponse(resp)));
    std::lock_guard<std::mutex> lock(metrics_mu_);
    ++counters_.responses;
    return;
  }
  // kMetrics is likewise answered inline (and ignores any session
  // name): a scrape must observe a server whose job queue is saturated.
  if (req.type == MsgType::kMetrics) {
    NetResponse resp = MetricsReply();
    resp.request_id = req.request_id;
    SendToConnection(conn_id, EncodeFrame(EncodeResponse(resp)));
    std::lock_guard<std::mutex> lock(metrics_mu_);
    ++counters_.responses;
    return;
  }
  if (req.session.empty()) {
    SendError(conn_id, req.request_id, WireError::kInvalidArgument,
              "request needs a session name");
    return;
  }

  // Admission: shed instead of queueing past the bound. The event loop
  // must never block behind session work.
  if (jobs_pending_ >= options_.max_queue) {
    {
      std::lock_guard<std::mutex> lock(metrics_mu_);
      ++counters_.overloaded;
    }
    static Counter* overload_count =
        MetricsRegistry::Global().GetCounter("serve.overload.count");
    overload_count->Add(1);
    SendError(conn_id, req.request_id, WireError::kOverloaded,
              "job queue full");
    return;
  }

  Job job;
  job.conn_id = conn_id;
  job.request = std::move(req);
  job.enqueued_at = MonotonicSeconds();
  ++jobs_pending_;
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    counters_.queue_depth = jobs_pending_;
    if (jobs_pending_ > counters_.queue_peak) {
      counters_.queue_peak = jobs_pending_;
    }
  }
  static Gauge* queue_gauge =
      MetricsRegistry::Global().GetGauge("net.queue.depth");
  queue_gauge->Set(static_cast<int64_t>(jobs_pending_));
  Lane& lane = lanes_[job.request.session];
  if (lane.running) {
    // The session already has a job in flight: FIFO behind it. This is
    // what makes pipelined deltas apply in send order.
    lane.waiting.push_back(std::move(job));
    return;
  }
  lane.running = true;
  SubmitJob(std::move(job));
}

void Server::SubmitJob(Job job) {
  workers_->Submit([this, job = std::move(job)]() {
    const bool is_delta = job.request.type == MsgType::kApplyDelta;
    TraceBuilder trace(job.request.session);
    if (is_delta) {
      // The queue wait happened before this worker existed; stamp it
      // with explicit bounds. enqueued_at and TraceNowNs share the
      // steady clock.
      const uint64_t enqueued_ns =
          static_cast<uint64_t>(job.enqueued_at * 1e9);
      const uint64_t now_ns = TraceNowNs();
      trace.AddSpan("net.lane.wait", enqueued_ns, now_ns);
      lane_wait_->Record(static_cast<double>(now_ns - enqueued_ns) * 1e-9);
    }
    NetResponse resp = Execute(job.request, is_delta ? &trace : nullptr);
    resp.request_id = job.request.request_id;
    Completion done;
    done.conn_id = job.conn_id;
    done.lane = job.request.session;
    done.is_delta = is_delta;
    done.is_error = resp.type == MsgType::kError;
    done.latency_seconds = MonotonicSeconds() - job.enqueued_at;
    done.frame = EncodeFrame(EncodeResponse(resp));
    {
      std::lock_guard<std::mutex> lock(metrics_mu_);
      if (done.is_error) ++counters_.errors_sent;
      if (done.is_delta && !done.is_error) {
        ++counters_.deltas_applied;
      }
    }
    if (done.is_delta && !done.is_error) {
      wire_latency_->Record(done.latency_seconds);
    }
    {
      std::lock_guard<std::mutex> lock(completion_mu_);
      completions_.push_back(std::move(done));
    }
    Wake();
  });
}

void Server::PumpLane(const std::string& lane_name) {
  auto it = lanes_.find(lane_name);
  if (it == lanes_.end() || it->second.running) return;
  if (it->second.waiting.empty()) {
    lanes_.erase(it);
    return;
  }
  Job job = std::move(it->second.waiting.front());
  it->second.waiting.pop_front();
  it->second.running = true;
  SubmitJob(std::move(job));
}

void Server::DrainCompletions() {
  std::vector<Completion> done;
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    done.swap(completions_);
  }
  static Gauge* queue_gauge =
      MetricsRegistry::Global().GetGauge("net.queue.depth");
  for (Completion& c : done) {
    --jobs_pending_;
    {
      std::lock_guard<std::mutex> lock(metrics_mu_);
      counters_.queue_depth = jobs_pending_;
      ++counters_.responses;
    }
    queue_gauge->Set(static_cast<int64_t>(jobs_pending_));
    auto lane = lanes_.find(c.lane);
    if (lane != lanes_.end()) {
      lane->second.running = false;
      PumpLane(c.lane);
    }
    SendToConnection(c.conn_id, c.frame);
    // A committed delta is the stream-advance event: ship it to every
    // subscriber of that session right away (heartbeats only cover the
    // idle case).
    if (c.is_delta && !c.is_error && !subs_.empty()) {
      std::vector<uint64_t> to_pump;
      for (const auto& [id, src] : subs_) {
        if (src->session() == c.lane) to_pump.push_back(id);
      }
      for (uint64_t id : to_pump) PumpSubscription(id, /*heartbeat=*/false);
    }
  }
}

void Server::SendToConnection(uint64_t conn_id, const std::string& frame) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // client left; drop the response
  Connection& conn = it->second;
  conn.last_activity = MonotonicSeconds();
  if (FaultPoints::Global().Hit("net.send.partial") != FaultAction::kNone) {
    // Flush half the frame, then kill the socket: the peer sees a torn
    // frame exactly as if the server died mid-send. shutdown() instead
    // of close keeps the fd valid for the pointers ReadReady may still
    // hold; the poll loop reaps it next round.
    conn.out.append(frame.data(), frame.size() / 2);
    (void)WriteReady(&conn);
    ::shutdown(conn.fd, SHUT_RDWR);
    return;
  }
  const bool was_empty = conn.out.empty();
  conn.out.append(frame);
  // Eager flush: skip one poll round trip when the socket has room. A
  // write failure is NOT handled here — this runs inside ReadReady's
  // decode loop, which still holds a pointer into the connection, so
  // erasing it now would be a use-after-free. The dead socket reports
  // POLLERR on the next poll and is reaped there.
  if (was_empty) (void)WriteReady(&conn);
}

void Server::SendError(uint64_t conn_id, uint64_t request_id, WireError error,
                       std::string message) {
  NetResponse resp;
  resp.type = MsgType::kError;
  resp.request_id = request_id;
  resp.error = error;
  resp.retryable = WireErrorRetryable(error);
  resp.message = std::move(message);
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    ++counters_.errors_sent;
    ++counters_.responses;
  }
  static Counter* error_count =
      MetricsRegistry::Global().GetCounter("serve.error.count");
  error_count->Add(1);
  SendToConnection(conn_id, EncodeFrame(EncodeResponse(resp)));
}

// --------------------------------------------- replication shipping

void Server::HandleSubscribe(uint64_t conn_id, const std::string& payload) {
  auto decoded = DecodeReplSubscribe(payload);
  if (!decoded.ok()) {
    SendError(conn_id, PeekRequestId(payload), WireError::kUnknownMessage,
              decoded.status().ToString());
    return;
  }
  const ReplSubscribe& sub = decoded.value();
  if (options_.replica != nullptr) {
    SendError(conn_id, sub.request_id, WireError::kInvalidArgument,
              "replicas do not ship the stream onward; subscribe at the "
              "primary " + options_.replica->primary_addr());
    return;
  }
  if (options_.durability_root.empty()) {
    SendError(conn_id, sub.request_id, WireError::kInvalidArgument,
              "replication needs a durable primary (start the server with "
              "a durability root)");
    return;
  }
  auto session = manager_->Get(sub.session);
  if (!session.ok()) {
    // Typically NotFound: the session has not been opened yet. The
    // follower backs off and re-subscribes.
    SendError(conn_id, sub.request_id,
              WireErrorFromStatus(session.status()),
              session.status().ToString());
    return;
  }
  const uint64_t committed = session.value()->wal_base() +
                             session.value()->committed_records();
  auto source = ReplSource::Create(
      sub.session, options_.durability_root + "/" + sub.session,
      sub.position, sub.has_state, committed);
  if (!source.ok()) {
    SendError(conn_id, sub.request_id,
              WireErrorFromStatus(source.status()),
              source.status().ToString());
    return;
  }

  ReplSubscribeReply reply;
  reply.request_id = sub.request_id;
  reply.committed = committed;
  reply.snapshot = source.value()->ships_snapshot();
  reply.snapshot_position = source.value()->snapshot_position();
  reply.snapshot_bytes = source.value()->snapshot_bytes();

  auto conn = conns_.find(conn_id);
  if (conn == conns_.end()) return;
  conn->second.subscriber = true;
  subs_[conn_id] = source.TakeValue();

  static Counter* subscribes =
      MetricsRegistry::Global().GetCounter("repl.subscribe.count");
  subscribes->Add(1);
  FlightRecorder::Global().Recordf(
      "replication subscriber for '%s' at position %llu (committed %llu%s)",
      sub.session.c_str(), (unsigned long long)sub.position,
      (unsigned long long)committed,
      reply.snapshot ? ", shipping snapshot" : "");

  SendToConnection(conn_id, EncodeFrame(EncodeReplSubscribeReply(reply)));
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    ++counters_.responses;
  }
  PumpSubscription(conn_id, /*heartbeat=*/false);
}

void Server::HandleReplAck(uint64_t conn_id, const std::string& payload) {
  auto decoded = DecodeReplAck(payload);
  auto it = subs_.find(conn_id);
  if (!decoded.ok() || it == subs_.end()) return;  // stray ack: ignore
  it->second->RecordAck(decoded.value().position);
  static Counter* acks =
      MetricsRegistry::Global().GetCounter("repl.acks.received");
  acks->Add(1);
  auto session = manager_->Get(it->second->session());
  if (session.ok()) {
    UpdateLagGauges(*it->second,
                    session.value()->wal_base() +
                        session.value()->committed_records(),
                    MonotonicSeconds());
  }
}

void Server::PumpSubscription(uint64_t conn_id, bool heartbeat) {
  auto it = subs_.find(conn_id);
  auto conn = conns_.find(conn_id);
  if (it == subs_.end() || conn == conns_.end()) return;
  ReplSource& source = *it->second;
  auto session = manager_->Get(source.session());
  if (!session.ok()) {
    // Session closed under the subscription; cut the stream, the
    // follower will back off and re-subscribe.
    ::shutdown(conn->second.fd, SHUT_RDWR);
    return;
  }
  const uint64_t committed = session.value()->wal_base() +
                             session.value()->committed_records();
  const double now = MonotonicSeconds();

  std::vector<std::string> frames;
  bool cut = false;
  auto pumped = source.Pump(committed, now, &frames, &cut);
  if (!pumped.ok()) {
    FlightRecorder::Global().Recordf(
        "replication pump for '%s' failed: %s", source.session().c_str(),
        pumped.status().ToString().c_str());
    for (std::string& f : frames) SendToConnection(conn_id, f);
    ::shutdown(conn->second.fd, SHUT_RDWR);
    return;
  }
  if (frames.empty() && heartbeat && !source.snapshot_pending()) {
    frames.push_back(source.HeartbeatFrame(committed));
  }
  for (std::string& f : frames) SendToConnection(conn_id, f);
  if (cut) {
    // repl.ship.mid_record: the torn frame is flushed (eagerly, by
    // SendToConnection) and the stream dies mid-record.
    (void)WriteReady(&conn->second);
    ::shutdown(conn->second.fd, SHUT_RDWR);
    return;
  }
  UpdateLagGauges(source, committed, now);
}

void Server::UpdateLagGauges(const ReplSource& source, uint64_t committed,
                             double now) {
  static Gauge* lag_records =
      MetricsRegistry::Global().GetGauge("repl.lag.records");
  static Gauge* lag_seconds =
      MetricsRegistry::Global().GetGauge("repl.lag.seconds");
  const uint64_t acked = source.acked();
  lag_records->Set(committed > acked
                       ? static_cast<int64_t>(committed - acked)
                       : 0);
  // Age of the oldest shipped-but-unacked record, in whole seconds
  // (gauges are integral — sub-second lag reads 0, which is the healthy
  // steady state; the records gauge is the fine-grained one).
  const double since = source.oldest_unacked_since();
  lag_seconds->Set(since > 0.0 ? static_cast<int64_t>(now - since) : 0);
}

void Server::SweepConnections(double now) {
  std::vector<uint64_t> reap;
  for (const auto& [id, conn] : conns_) {
    if (conn.subscriber) continue;
    if (options_.read_deadline_seconds > 0 && conn.partial_since > 0.0 &&
        now - conn.partial_since > options_.read_deadline_seconds) {
      reap.push_back(id);
      continue;
    }
    if (options_.idle_timeout_seconds > 0 &&
        now - conn.last_activity > options_.idle_timeout_seconds) {
      reap.push_back(id);
    }
  }
  if (reap.empty()) return;
  static Counter* reaped =
      MetricsRegistry::Global().GetCounter("net.conn.reaped.count");
  for (uint64_t id : reap) {
    reaped->Add(1);
    {
      std::lock_guard<std::mutex> lock(metrics_mu_);
      ++counters_.connections_reaped;
    }
    CloseConnection(id);
  }
}

// --------------------------------------------------------- job bodies

NetResponse Server::Execute(const NetRequest& request, TraceBuilder* trace) {
  if (request.type == MsgType::kOpenSession && request.program_fp != 0 &&
      request.program_fp != program_fp_) {
    return ErrorReply(Status::InvalidArgument(StrFormat(
        "program fingerprint mismatch: client %llx, server %llx — the "
        "wire carries numeric ids, so both ends must load the same program",
        (unsigned long long)request.program_fp,
        (unsigned long long)program_fp_)));
  }
  if (options_.replica != nullptr) {
    return ReplicaReply(program_, options_.replica, options_.replica_session,
                        request, trace);
  }
  NetResponse resp;
  switch (request.type) {
    case MsgType::kOpenSession: {
      // Re-attach when the session survived its previous client.
      auto session = manager_->Get(request.session);
      const bool attached = session.ok();
      if (!attached) {
        session = manager_->Open(request.session, program_, evidence_,
                                 options_.session);
      }
      if (!session.ok()) {
        resp = ErrorReply(session.status());
        break;
      }
      resp = ReadReply(program_, *session.value(), request);
      resp.attached = attached;
      break;
    }
    case MsgType::kApplyDelta:
      resp = DeltaReply(
          manager_->ApplyDelta(request.session, request.delta, trace));
      break;
    case MsgType::kCloseSession: {
      Status closed = manager_->Close(request.session);
      if (!closed.ok()) {
        resp = ErrorReply(closed);
        break;
      }
      resp.type = MsgType::kCloseReply;
      break;
    }
    case MsgType::kRecover: {
      RecoveryStats stats;
      auto recovered = manager_->Recover(request.session, program_,
                                         options_.session, &stats);
      resp = recovered.ok() ? RecoverReply(*recovered.value(), stats)
                            : ErrorReply(recovered.status());
      break;
    }
    default: {
      // Reads. kTrace goes through the session's lane like any session
      // request, so reading the trace ring never races an ApplyDelta.
      auto session = manager_->Get(request.session);
      resp = session.ok() ? ReadReply(program_, *session.value(), request)
                          : ErrorReply(session.status());
      break;
    }
  }
  if (request.type == MsgType::kOpenSession ||
      request.type == MsgType::kCloseSession ||
      request.type == MsgType::kRecover) {
    static Gauge* sessions_gauge =
        MetricsRegistry::Global().GetGauge("net.sessions.open");
    sessions_gauge->Set(static_cast<int64_t>(manager_->num_sessions()));
  }
  return resp;
}

NetResponse Server::ServerStatsResponse(uint64_t request_id) {
  NetResponse resp;
  resp.type = MsgType::kStatsReply;
  resp.request_id = request_id;
  ServerMetrics m = metrics();
  resp.stats = {
      {"connections_accepted", static_cast<double>(m.connections_accepted)},
      {"connections_open", static_cast<double>(m.connections_open)},
      {"bytes_in", static_cast<double>(m.bytes_in)},
      {"bytes_out", static_cast<double>(m.bytes_out)},
      {"requests", static_cast<double>(m.requests)},
      {"responses", static_cast<double>(m.responses)},
      {"errors_sent", static_cast<double>(m.errors_sent)},
      {"overloaded", static_cast<double>(m.overloaded)},
      {"protocol_errors", static_cast<double>(m.protocol_errors)},
      {"connections_reaped", static_cast<double>(m.connections_reaped)},
      {"deltas_applied", static_cast<double>(m.deltas_applied)},
      {"queue_depth", static_cast<double>(m.queue_depth)},
      {"queue_peak", static_cast<double>(m.queue_peak)},
      {"sessions_open", static_cast<double>(m.sessions_open)},
      {"delta_p50_ms", m.delta_p50_ms},
      {"delta_p99_ms", m.delta_p99_ms},
      {"delta_mean_ms", m.delta_mean_ms},
  };
  return resp;
}

ServerMetrics Server::metrics() const {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  ServerMetrics m = counters_;
  m.sessions_open = manager_ ? manager_->num_sessions() : 0;
  if (wire_latency_ != nullptr) {
    // Subtract the Start() baseline: only this server's samples.
    const HistogramSnapshot snap =
        wire_latency_->Snapshot() - wire_latency_base_;
    m.delta_p50_ms = snap.Percentile(0.50) * 1e3;
    m.delta_p99_ms = snap.Percentile(0.99) * 1e3;
    m.delta_mean_ms = snap.mean_seconds() * 1e3;
  }
  return m;
}

std::string Server::MetricsReport() const {
  ServerMetrics m = metrics();
  std::string out = "== net serving metrics ==\n";
  out += StrFormat(
      "connections: %llu accepted, %llu open, %llu reaped\n",
      (unsigned long long)m.connections_accepted,
      (unsigned long long)m.connections_open,
      (unsigned long long)m.connections_reaped);
  out += StrFormat("bytes: %llu in, %llu out\n",
                   (unsigned long long)m.bytes_in,
                   (unsigned long long)m.bytes_out);
  out += StrFormat(
      "requests: %llu in, %llu responses (%llu errors, %llu overloaded, "
      "%llu protocol errors)\n",
      (unsigned long long)m.requests, (unsigned long long)m.responses,
      (unsigned long long)m.errors_sent, (unsigned long long)m.overloaded,
      (unsigned long long)m.protocol_errors);
  out += StrFormat("job queue: depth %zu, peak %zu\n", m.queue_depth,
                   m.queue_peak);
  out += StrFormat("sessions open: %llu\n",
                   (unsigned long long)m.sessions_open);
  out += StrFormat(
      "deltas: %llu applied, latency p50 %.3f ms, p99 %.3f ms, "
      "mean %.3f ms\n",
      (unsigned long long)m.deltas_applied, m.delta_p50_ms, m.delta_p99_ms,
      m.delta_mean_ms);
  return out;
}

}  // namespace tuffy
