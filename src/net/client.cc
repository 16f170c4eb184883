#include "net/client.h"

#include <errno.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "util/string_util.h"

namespace tuffy {

Client::~Client() { Disconnect(); }

Status Client::Connect(const std::string& host, uint16_t port) {
  if (fd_ >= 0) return Status::InvalidArgument("already connected");
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = StrFormat("%u", static_cast<unsigned>(port));
  int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res);
  if (rc != 0) {
    return Status::IOError(StrFormat("resolve %s: %s", host.c_str(),
                                     ::gai_strerror(rc)));
  }
  Status status = Status::IOError("no addresses for " + host);
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      status = Status::IOError(std::string("socket: ") +
                               std::strerror(errno));
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      fd_ = fd;
      status = Status::OK();
      break;
    }
    status =
        Status::IOError(std::string("connect: ") + std::strerror(errno));
    ::close(fd);
  }
  ::freeaddrinfo(res);
  return status;
}

void Client::Disconnect() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  in_.clear();
}

Result<uint64_t> Client::Send(NetRequest request) {
  if (request.request_id == 0) request.request_id = next_request_id_++;
  TUFFY_RETURN_IF_ERROR(SendPayload(EncodeRequest(request)));
  return request.request_id;
}

Status Client::SendPayload(const std::string& payload) {
  if (fd_ < 0) return Status::InvalidArgument("not connected");
  const std::string frame = EncodeFrame(payload);
  size_t sent = 0;
  while (sent < frame.size()) {
    ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                       MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    return Status::IOError(std::string("send: ") + std::strerror(errno));
  }
  return Status::OK();
}

Result<NetResponse> Client::Receive() {
  TUFFY_ASSIGN_OR_RETURN(std::string payload, ReceiveFrame(-1));
  return DecodeResponse(payload);
}

Result<std::string> Client::ReceiveFrame(int timeout_ms) {
  if (fd_ < 0) return Status::InvalidArgument("not connected");
  char buf[65536];
  while (true) {
    std::string payload;
    size_t consumed = 0;
    FrameDecode fd = TryDecodeFrame(in_.data(), in_.size(),
                                    max_frame_bytes_, &payload, &consumed);
    if (fd == FrameDecode::kFrame) {
      in_.erase(0, consumed);
      return payload;
    }
    if (fd == FrameDecode::kBadCrc) {
      return Status::Corruption("frame failed crc check");
    }
    if (fd == FrameDecode::kTooLarge) {
      return Status::Corruption("frame exceeds size limit");
    }
    if (timeout_ms >= 0) {
      pollfd pfd{fd_, POLLIN, 0};
      int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(std::string("poll: ") + std::strerror(errno));
      }
      if (ready == 0) return Status::NotFound("no frame within the timeout");
    }
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      in_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return Status::IOError("peer closed the connection");
    if (errno == EINTR) continue;
    return Status::IOError(std::string("recv: ") + std::strerror(errno));
  }
}

Result<NetResponse> Client::Call(NetRequest request) {
  TUFFY_ASSIGN_OR_RETURN(uint64_t id, Send(std::move(request)));
  TUFFY_ASSIGN_OR_RETURN(NetResponse resp, Receive());
  if (resp.request_id != id) {
    return Status::Internal(StrFormat(
        "response for request %llu while waiting on %llu — Call() must "
        "not be mixed with unreceived pipelined Sends",
        (unsigned long long)resp.request_id, (unsigned long long)id));
  }
  return resp;
}

Result<NetResponse> Client::CallWithRetry(const NetRequest& request,
                                          const RetryPolicy& policy) {
  static Counter* retries =
      MetricsRegistry::Global().GetCounter("net.client.retry.count");
  double sleep = policy.base_seconds;
  Result<NetResponse> last = Status::Internal("CallWithRetry: zero attempts");
  for (int attempt = 0; attempt < std::max(1, policy.max_attempts);
       ++attempt) {
    if (attempt > 0) {
      retries->Add(1);
      std::this_thread::sleep_for(std::chrono::duration<double>(sleep));
      sleep = NextBackoff(sleep, policy.base_seconds, policy.max_seconds,
                          &retry_rng_);
    }
    NetRequest copy = request;
    copy.request_id = 0;  // fresh id per attempt
    last = Call(std::move(copy));
    if (!last.ok()) return last;  // transport trouble: not retryable here
    if (last.value().type != MsgType::kError || !last.value().retryable) {
      return last;
    }
  }
  return last;
}

Result<NetResponse> Client::OpenSession(const std::string& session,
                                        uint64_t program_fp) {
  NetRequest req;
  req.type = MsgType::kOpenSession;
  req.session = session;
  req.program_fp = program_fp;
  return Call(std::move(req));
}

Result<NetResponse> Client::ApplyDelta(const std::string& session,
                                       const EvidenceDelta& delta) {
  NetRequest req;
  req.type = MsgType::kApplyDelta;
  req.session = session;
  req.delta = delta;
  return Call(std::move(req));
}

Result<NetResponse> Client::QueryMap(const std::string& session,
                                     const std::string& predicate) {
  NetRequest req;
  req.type = MsgType::kQueryMap;
  req.session = session;
  req.predicate = predicate;
  return Call(std::move(req));
}

Result<NetResponse> Client::QueryMarginals(const std::string& session,
                                           const std::string& predicate) {
  NetRequest req;
  req.type = MsgType::kQueryMarginals;
  req.session = session;
  req.predicate = predicate;
  return Call(std::move(req));
}

Result<NetResponse> Client::CloseSession(const std::string& session) {
  NetRequest req;
  req.type = MsgType::kCloseSession;
  req.session = session;
  return Call(std::move(req));
}

Result<NetResponse> Client::Recover(const std::string& session) {
  NetRequest req;
  req.type = MsgType::kRecover;
  req.session = session;
  return Call(std::move(req));
}

Result<NetResponse> Client::Stats(const std::string& session) {
  NetRequest req;
  req.type = MsgType::kStats;
  req.session = session;
  return Call(std::move(req));
}

Result<NetResponse> Client::Metrics() {
  NetRequest req;
  req.type = MsgType::kMetrics;
  return Call(std::move(req));
}

Result<NetResponse> Client::Trace(const std::string& session) {
  NetRequest req;
  req.type = MsgType::kTrace;
  req.session = session;
  return Call(std::move(req));
}

}  // namespace tuffy
