#ifndef TKC_NET_WIRE_FORMAT_H_
#define TKC_NET_WIRE_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"
#include "workload/query_workload.h"

/// \file wire_format.h
/// The TKC wire protocol: a length-prefixed binary framing shared by
/// TkcServer and TkcClient. Deliberately dependency-free (no protobuf, no
/// HTTP): every frame is a fixed 12-byte header followed by a typed
/// little-endian payload, so both sides parse with bounded state and a
/// malformed stream is detectable at the first bad header.
///
/// Frame header (12 bytes, little-endian):
///
///   offset 0  u8[4]  magic       'T' 'K' 'C' '1'
///   offset 4  u8     version     kWireVersion (1)
///   offset 5  u8     type        FrameType
///   offset 6  u16    reserved    must be 0
///   offset 8  u32    payload_len <= kMaxPayloadBytes
///
/// Payloads by type (all integers little-endian):
///
///   kQueryRequest (client -> server):
///     u64 request_id        caller-chosen correlation id
///     u32 deadline_ms       0 = unlimited; else the deadline starts ticking
///                           when the server decodes the frame
///     u32 num_queries       <= kMaxQueriesPerRequest, >= 1
///     num_queries x { u32 k, u32 range_start, u32 range_end }
///
///   kVerdict (server -> client, one per query, streamed as the batch
///   completes; all verdicts of one request are contiguous on the wire):
///     u64 request_id
///     u32 query_index
///     u32 status_code       StatusCode as u32 (message not carried)
///     u64 num_cores
///     u64 result_size_edges
///     u64 vct_size
///     u64 ecs_size
///
///   kBatchEnd (server -> client, closes one request):
///     u64 request_id
///     u64 snapshot_version  graph version the batch was pinned to
///     u32 num_queries       must equal the count of preceding verdicts
///
///   kStatsRequest (client -> server):
///     u64 request_id
///
///   kStatsResponse (server -> client):
///     u64 request_id
///     u32 num_counters      ServerStats fields, in declaration order; a
///                           newer server may append counters, a client
///                           reads the ones it knows
///     num_counters x u64
///
///   kError (server -> client; the connection closes after a framing-level
///   error, stays open after a request-level one):
///     u64 request_id        0 when the error is not attributable
///     u32 status_code
///     u32 message_len
///     message_len x u8
///
/// Deadline semantics over the wire: deadline_ms is a *budget*, not an
/// absolute instant (clocks are not assumed synchronized). The server
/// starts the deadline at frame decode and propagates it into
/// LiveQueryEngine::Submit, so a backed-up request queue sheds by
/// remaining budget exactly as an in-process submission would — the client
/// sees explicit Timeout / ResourceExhausted verdicts, never silence.

namespace tkc::net {

inline constexpr uint8_t kWireMagic[4] = {'T', 'K', 'C', '1'};
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 12;
inline constexpr uint32_t kMaxPayloadBytes = 1u << 20;
inline constexpr uint32_t kMaxQueriesPerRequest = 4096;

enum class FrameType : uint8_t {
  kQueryRequest = 1,
  kVerdict = 2,
  kBatchEnd = 3,
  kStatsRequest = 4,
  kStatsResponse = 5,
  kError = 6,
};

/// True for types a client is allowed to send.
bool IsClientFrameType(FrameType type);

/// Monotone counters describing everything a TkcServer observed, and the
/// payload of the kStatsResponse frame (fields are serialized in
/// declaration order — append new counters at the end only).
///
/// Invariants once the server has quiesced (no open connections, nothing
/// in flight) — the abuse tests assert these after every scenario:
///   batches_submitted == batches_completed
///   batches_completed == responses_streamed + responses_dropped
///   connections_accepted == connections_closed + connections_dropped
struct ServerStats {
  uint64_t connections_accepted = 0;  ///< accept() handshakes completed
  uint64_t connections_closed = 0;    ///< closed cleanly (EOF, all settled)
  uint64_t connections_dropped = 0;   ///< protocol abuse, overflow, timeout,
                                      ///< reset, or server stop
  uint64_t accept_failures = 0;       ///< accept() errors (net.accept_fail)
  uint64_t frames_parsed = 0;         ///< well-formed frames decoded
  uint64_t frames_rejected = 0;       ///< framing/validation errors
  uint64_t requests_received = 0;     ///< well-formed query requests
  uint64_t batches_submitted = 0;     ///< requests submitted to the engine
  uint64_t batches_completed = 0;     ///< engine verdicts settled (streamed,
                                      ///< dropped, or settled at Stop)
  uint64_t responses_streamed = 0;    ///< verdicts written toward a live conn
  uint64_t responses_dropped = 0;     ///< verdicts whose connection was gone
  uint64_t batches_shed = 0;          ///< completed all-ResourceExhausted
  uint64_t deadlines_expired = 0;     ///< completed all-Timeout (wire
                                      ///< deadline ran out before execution)
  uint64_t stats_requests = 0;        ///< kStatsRequest frames served
  uint64_t errors_sent = 0;           ///< kError frames written
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
};

/// Number of u64 counters ServerStats serializes (kept next to the struct
/// so adding a field updates both).
inline constexpr uint32_t kServerStatsCounters = 17;

struct QueryRequestFrame {
  uint64_t request_id = 0;
  uint32_t deadline_ms = 0;
  std::vector<Query> queries;
};

struct VerdictFrame {
  uint64_t request_id = 0;
  uint32_t query_index = 0;
  uint32_t status_code = 0;
  uint64_t num_cores = 0;
  uint64_t result_size_edges = 0;
  uint64_t vct_size = 0;
  uint64_t ecs_size = 0;
};

struct BatchEndFrame {
  uint64_t request_id = 0;
  uint64_t snapshot_version = 0;
  uint32_t num_queries = 0;
};

struct ErrorFrame {
  uint64_t request_id = 0;
  uint32_t status_code = 0;
  std::string message;
};

/// One decoded frame: `type` selects which member is meaningful.
struct Frame {
  FrameType type = FrameType::kError;
  QueryRequestFrame query_request;
  VerdictFrame verdict;
  BatchEndFrame batch_end;
  uint64_t stats_request_id = 0;
  uint64_t stats_response_id = 0;
  ServerStats stats;
  ErrorFrame error;
};

// --- encoders (append one whole frame, header included, to *out) -----------

void AppendQueryRequest(const QueryRequestFrame& frame, std::string* out);
void AppendVerdict(const VerdictFrame& frame, std::string* out);
void AppendBatchEnd(const BatchEndFrame& frame, std::string* out);
void AppendStatsRequest(uint64_t request_id, std::string* out);
void AppendStatsResponse(uint64_t request_id, const ServerStats& stats,
                         std::string* out);
void AppendError(const ErrorFrame& frame, std::string* out);

/// `code` as a wire status_code, and back. Unknown wire values decode to
/// StatusCode::kInternal (never silently OK).
uint32_t StatusCodeToWire(StatusCode code);
StatusCode StatusCodeFromWire(uint32_t wire);

/// Incremental frame parser: feed raw bytes in arbitrary chunks (short
/// reads included), pop complete frames. The first malformed byte sequence
/// poisons the stream — Next() returns kError from then on and error()
/// explains; a framing error leaves no way to resynchronize, so the owner
/// must close the connection.
class FrameParser {
 public:
  explicit FrameParser(uint32_t max_payload_bytes = kMaxPayloadBytes,
                       uint32_t max_queries = kMaxQueriesPerRequest)
      : max_payload_bytes_(max_payload_bytes), max_queries_(max_queries) {}

  void Feed(const char* data, size_t len) { buffer_.append(data, len); }

  enum class Result {
    kFrame,     ///< *frame holds the next complete frame
    kNeedMore,  ///< no complete frame buffered yet
    kError,     ///< stream poisoned; see error()
  };

  Result Next(Frame* frame);

  const Status& error() const { return error_; }
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  Result Poison(Status status) {
    error_ = std::move(status);
    return Result::kError;
  }

  uint32_t max_payload_bytes_;
  uint32_t max_queries_;
  std::string buffer_;
  size_t consumed_ = 0;  ///< bytes of buffer_ already parsed away
  Status error_;
};

}  // namespace tkc::net

#endif  // TKC_NET_WIRE_FORMAT_H_
