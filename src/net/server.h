#ifndef TKC_NET_SERVER_H_
#define TKC_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "net/wire_format.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

/// \file server.h
/// TkcServer: the network front end over LiveQueryEngine — the piece that
/// turns the in-process serving stack into a service. Dependency-free
/// (POSIX sockets + poll), speaking the length-prefixed binary protocol of
/// net/wire_format.h.
///
/// Architecture (a poll-style listener with connection + worker management):
///
///  * **One event-loop thread** owns the listening socket, every
///    connection, and all per-connection state. It polls for readability/
///    writability, reassembles frames from arbitrary read chunks
///    (FrameParser), and writes responses from per-connection outbound
///    buffers — no thread per connection, no blocking I/O.
///  * **Query execution never runs on the loop.** A decoded query request
///    is submitted to the LiveQueryEngine's async verb (serve/submit.h);
///    the engine's pool executes its misses against the pinned snapshot.
///    The only serving work the loop does itself is the cache lookup Submit
///    makes when the live engine has no other batch in flight on any
///    snapshot, which answers a batch the cache holds whole before Submit
///    returns. Either way the
///    completion pushes the finished batch straight onto the loop's handoff
///    deque (self-pipe wakeup), and the loop streams the per-query verdict
///    frames back — in the same round, for a batch answered at submission.
///  * **Deadlines propagate end to end.** A request's deadline_ms becomes a
///    Deadline at decode time and rides into Submit — a backed-up request
///    queue sheds the least-remaining-deadline batch over the wire
///    exactly as in-process (explicit ResourceExhausted / Timeout verdicts,
///    never a silently missing answer).
///  * **Slow readers are backpressured, not buffered without bound.** When
///    a connection's outbound buffer exceeds max_outbound_bytes the loop
///    stops reading new requests from it until the peer drains; half-open
///    idle connections are reaped by idle_timeout_seconds.
///  * **Abuse is survivable by construction.** A malformed frame poisons
///    only its own connection: the server answers with one kError frame and
///    closes. An abrupt disconnect with batches in flight never loses
///    accounting — the verdicts complete and are counted responses_dropped.
///
/// Teardown contract: Stop() joins the loop (which closes every
/// connection), drains the engine's in-flight async batches
/// (LiveQueryEngine::DrainAsync), then counts every batch still parked in
/// the handoff deque as dropped — so after Stop() returns, no engine-side
/// completion can touch this object and every submitted batch is accounted
/// (streamed, or dropped). The engine itself stays fully serviceable; the server
/// never owns it.

namespace tkc::net {

struct ServerOptions {
  std::string host = "127.0.0.1";  ///< listen address (IPv4 dotted quad)
  uint16_t port = 0;               ///< 0 = ephemeral; see TkcServer::port()

  /// Outbound-buffer threshold per connection: above it the loop stops
  /// reading new requests from that peer (slow-reader backpressure);
  /// reading resumes once the buffer drains below half.
  // lint: test-only-option(max_outbound_bytes): tests shrink it to drive
  // the slow-reader backpressure path, which the default never reaches.
  size_t max_outbound_bytes = 1u << 20;

  /// Reap connections with no wire activity and nothing in flight after
  /// this many seconds (half-open peers). <= 0 disables the sweep.
  // lint: test-only-option(idle_timeout_seconds): tests set a short
  // timeout to drive the idle-reaping path, which is off by default.
  double idle_timeout_seconds = 0;
};

class TkcServer {
 public:
  /// Binds, listens, and starts the loop thread. `engine` must
  /// outlive this server (the server never owns it; many servers could
  /// front one engine).
  [[nodiscard]] static StatusOr<std::unique_ptr<TkcServer>> Start(
      LiveQueryEngine* engine, const ServerOptions& options = {});

  /// Stop(), see the teardown contract above.
  ~TkcServer();

  TkcServer(const TkcServer&) = delete;
  TkcServer& operator=(const TkcServer&) = delete;

  /// Idempotent, safe to call concurrently. After it returns: every
  /// connection is closed, every submitted batch is accounted, and no
  /// engine-side delivery can touch this object again.
  void Stop() TKC_EXCLUDES(stop_mu_, completed_mu_, stats_mu_);

  /// The bound port (the ephemeral one when options.port was 0).
  uint16_t port() const { return port_; }

  /// Snapshot of the wire counters (also served over the wire as a
  /// kStatsResponse frame).
  ServerStats stats() const TKC_EXCLUDES(stats_mu_);

 private:
  struct Connection;
  /// Where a submitted batch's verdicts go.
  struct PendingBatch {
    uint64_t conn_serial = 0;
    uint64_t request_id = 0;
  };
  /// A finished batch parked in the handoff deque for the loop to stream.
  struct CompletedBatch {
    PendingBatch pending;
    BatchResult result;
  };

  TkcServer(LiveQueryEngine* engine, const ServerOptions& options);

  Status Listen();
  void Wake();
  void EventLoop() TKC_EXCLUDES(completed_mu_, stats_mu_);
  /// Streams every batch parked in the handoff deque.
  void StreamCompleted() TKC_EXCLUDES(completed_mu_, stats_mu_);

  void AcceptNew() TKC_EXCLUDES(stats_mu_);
  void HandleReadable(Connection* conn) TKC_EXCLUDES(stats_mu_);
  /// Flushes the outbound buffer as far as the socket allows. Returns false
  /// when the flush killed the connection (send error -> dropped).
  bool HandleWritable(Connection* conn) TKC_EXCLUDES(stats_mu_);
  void ParseFrames(Connection* conn) TKC_EXCLUDES(stats_mu_);
  void HandleQueryRequest(Connection* conn, QueryRequestFrame request)
      TKC_EXCLUDES(completed_mu_, stats_mu_);
  void HandleStatsRequest(Connection* conn, uint64_t request_id)
      TKC_EXCLUDES(stats_mu_);
  void HandleCompletion(const PendingBatch& pending, BatchResult result)
      TKC_EXCLUDES(stats_mu_);
  /// Appends one kError frame and flags the connection to flush-then-drop.
  void SendErrorAndClose(Connection* conn, uint64_t request_id,
                         const Status& status) TKC_EXCLUDES(stats_mu_);
  /// Immediate close: protocol abuse, I/O error, overflow, timeout, stop.
  void DropConnection(uint64_t serial) TKC_EXCLUDES(stats_mu_);
  /// Graceful close: peer EOF with everything settled.
  void CloseConnection(uint64_t serial) TKC_EXCLUDES(stats_mu_);
  /// Closes connections that finished flushing (closing flag) or whose
  /// peer half-closed with nothing left in flight.
  void SweepFinished(std::chrono::steady_clock::time_point now)
      TKC_EXCLUDES(stats_mu_);

  LiveQueryEngine* live_;
  ServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_rx_ = -1;
  int wake_tx_ = -1;

  std::atomic<bool> stopping_{false};
  Mutex stop_mu_;  ///< serializes Stop(); never taken by the loop
  bool stopped_ TKC_GUARDED_BY(stop_mu_) = false;

  // Loop-thread-only state — deliberately NOT annotated: the discipline is
  // thread confinement, not a lock. Only EventLoop (one thread) touches
  // these while the loop runs; Stop() touches them only after joining that
  // thread, so the join is the synchronization edge. Thread-safety
  // analysis has no capability for "owned by thread T"; inventing a mutex
  // just to satisfy it would add a lock the design exists to avoid.
  std::map<uint64_t, std::unique_ptr<Connection>> conns_;
  uint64_t next_serial_ = 1;
  /// net.write_stall fired this round: poll with a short timeout instead of
  /// re-arming POLLOUT into a busy loop.
  bool write_stalled_ = false;

  Mutex completed_mu_;
  /// engine completion -> loop handoff (pushed from pool threads, and from
  /// the loop itself for batches settled at submission)
  std::deque<CompletedBatch> completed_ TKC_GUARDED_BY(completed_mu_);

  mutable Mutex stats_mu_;
  ServerStats stats_ TKC_GUARDED_BY(stats_mu_);

  std::thread loop_;
};

}  // namespace tkc::net

#endif  // TKC_NET_SERVER_H_
