#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "util/fault_injection.h"
#include "util/mutex.h"

namespace tkc::net {

namespace {

constexpr int kListenBacklog = 64;
/// Accepts beyond this many open connections are dropped.
constexpr size_t kMaxConnections = 64;

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

std::chrono::steady_clock::time_point Now() {
  return std::chrono::steady_clock::now();
}

}  // namespace

/// Per-connection state, owned by the event loop.
struct TkcServer::Connection {
  Connection(uint64_t serial_in, int fd_in)
      : serial(serial_in), fd(fd_in), last_active(Now()) {}

  uint64_t serial;
  int fd;
  FrameParser parser;  ///< the wire format's default framing limits
  std::string outbuf;    ///< encoded-but-unsent response bytes
  size_t out_off = 0;    ///< prefix of outbuf already written
  uint32_t inflight = 0; ///< batches submitted, verdicts not yet settled
  bool read_closed = false;  ///< peer half-closed (EOF seen)
  bool closing = false;      ///< flush outbuf, then drop (error path)
  bool read_paused = false;  ///< slow-reader backpressure engaged
  std::chrono::steady_clock::time_point last_active;

  size_t unsent() const { return outbuf.size() - out_off; }
};

TkcServer::TkcServer(LiveQueryEngine* engine, const ServerOptions& options)
    : live_(engine), options_(options) {
  if (options_.max_outbound_bytes < kFrameHeaderBytes) {
    options_.max_outbound_bytes = kFrameHeaderBytes;
  }
}

StatusOr<std::unique_ptr<TkcServer>> TkcServer::Start(
    LiveQueryEngine* engine, const ServerOptions& options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("TkcServer::Start: engine is null");
  }
  std::unique_ptr<TkcServer> server(new TkcServer(engine, options));
  Status listen = server->Listen();
  if (!listen.ok()) return listen;
  server->loop_ = std::thread(&TkcServer::EventLoop, server.get());
  return server;
}

TkcServer::~TkcServer() { Stop(); }

Status TkcServer::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("bind");
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    return Errno("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return Errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  Status nb = SetNonBlocking(listen_fd_);
  if (!nb.ok()) return nb;

  int pipefd[2];
  if (::pipe(pipefd) != 0) return Errno("pipe");
  wake_rx_ = pipefd[0];
  wake_tx_ = pipefd[1];
  nb = SetNonBlocking(wake_rx_);
  if (nb.ok()) nb = SetNonBlocking(wake_tx_);
  return nb;
}

void TkcServer::Wake() {
  char byte = 1;
  // EAGAIN (pipe full) is fine: the loop is already guaranteed to wake.
  [[maybe_unused]] ssize_t n = ::write(wake_tx_, &byte, 1);
}

void TkcServer::StreamCompleted() {
  for (;;) {
    CompletedBatch batch;
    {
      MutexLock lock(completed_mu_);
      if (completed_.empty()) return;
      batch = std::move(completed_.front());
      completed_.pop_front();
    }
    HandleCompletion(batch.pending, std::move(batch.result));
  }
}

void TkcServer::EventLoop() {
  std::vector<pollfd> fds;
  std::vector<uint64_t> serials;
  while (!stopping_.load(std::memory_order_acquire)) {
    fds.clear();
    serials.clear();
    fds.push_back({wake_rx_, POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& entry : conns_) {
      const Connection& conn = *entry.second;
      short events = 0;
      if (!conn.read_closed && !conn.closing && !conn.read_paused) {
        events |= POLLIN;
      }
      if (conn.unsent() > 0 && !write_stalled_) events |= POLLOUT;
      fds.push_back({conn.fd, events, 0});
      serials.push_back(entry.first);
    }

    int timeout_ms = options_.idle_timeout_seconds > 0 ? 20 : -1;
    if (write_stalled_) {
      // A stalled write pretends EAGAIN without a kernel edge to wake on:
      // come back shortly instead of spinning on a writable socket.
      write_stalled_ = false;
      timeout_ms = 2;
    }
    ::poll(fds.data(), fds.size(), timeout_ms);
    if (stopping_.load(std::memory_order_acquire)) break;

    if (fds[0].revents & POLLIN) {
      char sink[256];
      while (::read(wake_rx_, sink, sizeof(sink)) > 0) {
      }
    }

    // Stream finished batches before accepting new work: verdicts the
    // engine handed over must not starve behind a busy accept loop.
    StreamCompleted();

    if (fds[1].revents & POLLIN) AcceptNew();

    for (size_t i = 0; i < serials.size(); ++i) {
      const short revents = fds[i + 2].revents;
      if (revents == 0) continue;
      auto it = conns_.find(serials[i]);
      if (it == conns_.end()) continue;  // closed earlier this round
      Connection* conn = it->second.get();
      if (revents & POLLNVAL) {
        DropConnection(conn->serial);
        continue;
      }
      if ((revents & POLLOUT) && !HandleWritable(conn)) continue;
      if (revents & (POLLIN | POLLHUP | POLLERR)) {
        if (conn->closing) {
          // Not reading anymore; a hangup means the flush can never land.
          if (revents & (POLLHUP | POLLERR)) DropConnection(conn->serial);
        } else {
          HandleReadable(conn);
        }
      }
    }

    // Requests the cache answered whole completed inside this round's
    // Submit calls: stream them now rather than a poll round later.
    StreamCompleted();
    SweepFinished(Now());
  }

  // Teardown on the loop thread: every open connection drops. In-flight
  // batches keep completing into completed_; Stop() settles them.
  std::vector<uint64_t> open;
  open.reserve(conns_.size());
  for (const auto& entry : conns_) open.push_back(entry.first);
  for (uint64_t serial : open) DropConnection(serial);
}

void TkcServer::AcceptNew() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        MutexLock lock(stats_mu_);
        ++stats_.accept_failures;
      }
      return;
    }
    if (FaultFires(kFaultNetAcceptFail)) {
      ::close(fd);
      MutexLock lock(stats_mu_);
      ++stats_.accept_failures;
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      MutexLock lock(stats_mu_);
      ++stats_.accept_failures;
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    {
      MutexLock lock(stats_mu_);
      ++stats_.connections_accepted;
    }
    if (conns_.size() >= kMaxConnections) {
      ::close(fd);
      MutexLock lock(stats_mu_);
      ++stats_.connections_dropped;
      continue;
    }
    const uint64_t serial = next_serial_++;
    conns_.emplace(serial, std::make_unique<Connection>(serial, fd));
  }
}

void TkcServer::HandleReadable(Connection* conn) {
  const uint64_t serial = conn->serial;
  char buf[16384];
  for (;;) {
    size_t want = sizeof(buf);
    if (FaultFires(kFaultNetReadShort)) want = 1;
    const ssize_t n = ::recv(conn->fd, buf, want, 0);
    if (n > 0) {
      {
        MutexLock lock(stats_mu_);
        stats_.bytes_read += static_cast<uint64_t>(n);
      }
      conn->last_active = Now();
      conn->parser.Feed(buf, static_cast<size_t>(n));
      ParseFrames(conn);
      if (conns_.find(serial) == conns_.end()) return;
      if (conn->closing || conn->read_paused) break;
      // A full read may have more behind it; a short one drained the
      // socket (and a 1-byte fault read yields the loop either way).
      if (static_cast<size_t>(n) < want || want == 1) break;
      continue;
    }
    if (n == 0) {
      conn->read_closed = true;  // half-close; settle in-flight, then close
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    DropConnection(serial);  // ECONNRESET and friends
    return;
  }
  if (conn->unsent() > 0) HandleWritable(conn);
}

void TkcServer::ParseFrames(Connection* conn) {
  Frame frame;
  for (;;) {
    const FrameParser::Result result = conn->parser.Next(&frame);
    if (result == FrameParser::Result::kNeedMore) return;
    if (result == FrameParser::Result::kError) {
      {
        MutexLock lock(stats_mu_);
        ++stats_.frames_rejected;
      }
      SendErrorAndClose(conn, 0, conn->parser.error());
      return;
    }
    if (!IsClientFrameType(frame.type)) {
      {
        MutexLock lock(stats_mu_);
        ++stats_.frames_rejected;
      }
      SendErrorAndClose(
          conn, 0,
          Status::InvalidArgument("client sent a server-only frame type"));
      return;
    }
    {
      MutexLock lock(stats_mu_);
      ++stats_.frames_parsed;
    }
    if (frame.type == FrameType::kQueryRequest) {
      HandleQueryRequest(conn, std::move(frame.query_request));
    } else {
      HandleStatsRequest(conn, frame.stats_request_id);
    }
  }
}

void TkcServer::HandleQueryRequest(Connection* conn,
                                   QueryRequestFrame request) {
  {
    MutexLock lock(stats_mu_);
    ++stats_.requests_received;
    ++stats_.batches_submitted;
  }
  // The wire deadline is a budget that starts ticking here, at decode —
  // clocks are not assumed synchronized across the connection.
  Deadline deadline;
  if (request.deadline_ms > 0) {
    deadline = Deadline::AfterSeconds(request.deadline_ms / 1000.0);
  }
  const PendingBatch pending{conn->serial, request.request_id};
  ++conn->inflight;
  // The completion runs on a pool thread, or right here on the loop when
  // the batch settles at submission (cache-answered, shed, expired).
  live_->Submit(BatchRequest{std::move(request.queries), deadline},
                [this, pending](BatchResult&& result) {
                  {
                    MutexLock lock(completed_mu_);
                    completed_.push_back({pending, std::move(result)});
                  }
                  Wake();
                });
}

void TkcServer::HandleStatsRequest(Connection* conn, uint64_t request_id) {
  ServerStats snapshot;
  {
    MutexLock lock(stats_mu_);
    ++stats_.stats_requests;
    snapshot = stats_;
  }
  AppendStatsResponse(request_id, snapshot, &conn->outbuf);
  if (conn->unsent() > options_.max_outbound_bytes) conn->read_paused = true;
}

void TkcServer::HandleCompletion(const PendingBatch& pending,
                                 BatchResult result) {
  bool all_shed = !result.outcomes.empty();
  bool all_timeout = !result.outcomes.empty();
  for (const RunOutcome& outcome : result.outcomes) {
    all_shed &= outcome.status.code() == StatusCode::kResourceExhausted;
    all_timeout &= outcome.status.code() == StatusCode::kTimeout;
  }
  {
    MutexLock lock(stats_mu_);
    ++stats_.batches_completed;
    if (all_shed) ++stats_.batches_shed;
    if (all_timeout) ++stats_.deadlines_expired;
  }

  auto conn_it = conns_.find(pending.conn_serial);
  if (conn_it != conns_.end() && conn_it->second->inflight > 0) {
    --conn_it->second->inflight;
  }
  if (conn_it == conns_.end() || conn_it->second->closing) {
    // The peer is gone (abrupt disconnect with batches in flight) or being
    // torn down for protocol abuse: the verdicts are accounted, not sent.
    MutexLock lock(stats_mu_);
    ++stats_.responses_dropped;
    return;
  }
  Connection* conn = conn_it->second.get();
  for (uint32_t i = 0; i < result.outcomes.size(); ++i) {
    const RunOutcome& outcome = result.outcomes[i];
    VerdictFrame verdict;
    verdict.request_id = pending.request_id;
    verdict.query_index = i;
    verdict.status_code = StatusCodeToWire(outcome.status.code());
    verdict.num_cores = outcome.num_cores;
    verdict.result_size_edges = outcome.result_size_edges;
    verdict.vct_size = outcome.vct_size;
    verdict.ecs_size = outcome.ecs_size;
    AppendVerdict(verdict, &conn->outbuf);
  }
  BatchEndFrame end;
  end.request_id = pending.request_id;
  end.snapshot_version = result.snapshot_version;
  end.num_queries = static_cast<uint32_t>(result.outcomes.size());
  AppendBatchEnd(end, &conn->outbuf);
  {
    MutexLock lock(stats_mu_);
    ++stats_.responses_streamed;
  }
  if (conn->unsent() > options_.max_outbound_bytes) conn->read_paused = true;
  HandleWritable(conn);
}

bool TkcServer::HandleWritable(Connection* conn) {
  const uint64_t serial = conn->serial;
  if (conn->out_off > 0 && conn->out_off >= conn->outbuf.size() / 2) {
    conn->outbuf.erase(0, conn->out_off);
    conn->out_off = 0;
  }
  if (conn->unsent() > 0 && FaultFires(kFaultNetWriteStall)) {
    write_stalled_ = true;
    return true;
  }
  while (conn->unsent() > 0) {
    const ssize_t n =
        ::send(conn->fd, conn->outbuf.data() + conn->out_off, conn->unsent(),
               MSG_NOSIGNAL);
    if (n > 0) {
      {
        MutexLock lock(stats_mu_);
        stats_.bytes_written += static_cast<uint64_t>(n);
      }
      conn->out_off += static_cast<size_t>(n);
      conn->last_active = Now();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    DropConnection(serial);  // EPIPE/ECONNRESET: peer vanished mid-stream
    return false;
  }
  if (conn->unsent() == 0) {
    conn->outbuf.clear();
    conn->out_off = 0;
  }
  if (conn->read_paused && !conn->closing &&
      conn->unsent() < options_.max_outbound_bytes / 2) {
    conn->read_paused = false;
  }
  return true;
}

void TkcServer::SendErrorAndClose(Connection* conn, uint64_t request_id,
                                  const Status& status) {
  ErrorFrame error;
  error.request_id = request_id;
  error.status_code = StatusCodeToWire(status.code());
  error.message = status.message();
  AppendError(error, &conn->outbuf);
  {
    MutexLock lock(stats_mu_);
    ++stats_.errors_sent;
  }
  conn->closing = true;
  HandleWritable(conn);  // best-effort immediate flush; sweep finishes it
}

void TkcServer::DropConnection(uint64_t serial) {
  auto it = conns_.find(serial);
  if (it == conns_.end()) return;
  ::close(it->second->fd);
  conns_.erase(it);
  MutexLock lock(stats_mu_);
  ++stats_.connections_dropped;
}

void TkcServer::CloseConnection(uint64_t serial) {
  auto it = conns_.find(serial);
  if (it == conns_.end()) return;
  ::close(it->second->fd);
  conns_.erase(it);
  MutexLock lock(stats_mu_);
  ++stats_.connections_closed;
}

void TkcServer::SweepFinished(std::chrono::steady_clock::time_point now) {
  std::vector<uint64_t> to_drop;
  std::vector<uint64_t> to_close;
  for (const auto& entry : conns_) {
    const Connection& conn = *entry.second;
    const bool flushed = conn.unsent() == 0;
    if (conn.closing && flushed) {
      to_drop.push_back(entry.first);
      continue;
    }
    if (conn.read_closed && conn.inflight == 0 && flushed) {
      to_close.push_back(entry.first);
      continue;
    }
    if (options_.idle_timeout_seconds > 0 && conn.inflight == 0 &&
        std::chrono::duration<double>(now - conn.last_active).count() >
            options_.idle_timeout_seconds) {
      to_drop.push_back(entry.first);  // half-open / idle peer
    }
  }
  for (uint64_t serial : to_close) CloseConnection(serial);
  for (uint64_t serial : to_drop) DropConnection(serial);
}

void TkcServer::Stop() {
  MutexLock stop_lock(stop_mu_);
  if (stopped_) return;
  stopping_.store(true, std::memory_order_release);
  Wake();
  if (loop_.joinable()) loop_.join();
  // The loop is gone but the engine may still be executing batches that
  // will complete into completed_. Drain them — after this, no engine-side
  // completion can touch this object (nor the wake pipe closed below).
  live_->DrainAsync();
  // Settle what the dead loop never streamed: every batch it did not stream
  // has its result parked in the handoff deque and is accounted dropped, so
  // every submitted batch ends accounted (completed + dropped).
  size_t unstreamed = 0;
  {
    MutexLock lock(completed_mu_);
    unstreamed = completed_.size();
    completed_.clear();
  }
  {
    MutexLock lock(stats_mu_);
    stats_.batches_completed += unstreamed;
    stats_.responses_dropped += unstreamed;
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_rx_ >= 0) ::close(wake_rx_);
  if (wake_tx_ >= 0) ::close(wake_tx_);
  listen_fd_ = wake_rx_ = wake_tx_ = -1;
  stopped_ = true;
}

ServerStats TkcServer::stats() const {
  MutexLock lock(stats_mu_);
  return stats_;
}

}  // namespace tkc::net
