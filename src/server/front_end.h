#ifndef MDS_SERVER_FRONT_END_H_
#define MDS_SERVER_FRONT_END_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <random>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/slab_pool.h"
#include "common/socket.h"
#include "common/status.h"
#include "server/protocol.h"
#include "server/wire.h"

namespace mds {

/// The wire front end shared by mdsd (QueryServer) and mdsc (Coordinator):
/// an epoll reactor that owns everything between the TCP listener and a
/// decoded, admitted request, plus the reply path back.
///
///  - `io_threads` reactor threads, each running an EventLoop; loop 0 owns
///    the non-blocking listener (with a jittered backoff on EMFILE), and
///    every connection lives on exactly one loop (BufferedSocket, idle
///    timer, write-stall timer, write queue). Thread count is independent
///    of connection count.
///  - The I/O thread frames, CRC-checks and decodes each request in place.
///    A bad magic, oversized length, bad CRC or undecodable header closes
///    the connection; a missing deadline prefix gets InvalidArgument and an
///    unknown type gets Unimplemented, and the connection stays open.
///  - kHealth and kStats are answered inline (they must work while the
///    server is saturated); the handler supplies its fields of each.
///  - Every other request first meets the handler's inline hook (mdsd's
///    response-cache probe), then admission control: at most
///    max_in_flight admitted requests, beyond that an immediate retryable
///    kUnavailable; while draining, kUnavailable + kFlagDraining.
///  - Admitted requests go to the handler's Execute, which must answer each
///    exactly once, from any thread: Finish() then Send() (or Reply()).
///    Replies are slab-backed frames queued on the connection's loop and
///    flushed with writev; no handler thread ever blocks on a client.
///
/// Drain: RequestDrain() stops accepting and sheds new requests while
/// admitted ones complete. Shutdown is two calls so the handler can stop
/// its own threads in between: AwaitIdle() waits until every admitted
/// request has finished, then Stop() flushes pending replies (bounded),
/// closes every connection and joins the I/O threads.
class FrontEnd {
 public:
  struct Options {
    uint16_t port = 0;
    size_t max_in_flight = 64;
    size_t max_connections = 256;
    /// Applied to requests that carry no deadline; 0 = none.
    uint32_t default_deadline_ms = 0;
    /// Per-frame read deadline (slow-loris / idle close); 0 = none.
    uint32_t idle_timeout_ms = 30000;
    unsigned io_threads = 1;
    /// Largest gang of contiguous `gangable` requests from one readiness
    /// event handed to one Execute call (1 = every request alone).
    size_t batch_max = 1;
    /// Test hook: treat the first N accepted connections as EMFILE.
    size_t debug_fail_first_accepts = 0;
  };

  struct Conn;

  /// One decoded request frame. Built on an I/O thread, then owned by the
  /// handler until its reply is sent.
  struct Request {
    std::shared_ptr<Conn> conn;
    protocol::MessageHeader header;
    std::vector<uint8_t> payload;  // full payload; body starts at body_offset
    size_t body_offset = 0;
    uint32_t deadline_ms = 0;  // effective (request or default)
    std::chrono::steady_clock::time_point arrival;
    /// True once the request passed admission control (its Finish
    /// releases the slot).
    bool admitted = false;
    /// Set by the handler's inline hook. mdsd: the dataset generation the
    /// request executes against and its cache epoch, captured as one pair;
    /// whether the request may ride a gang; whether its reply populates
    /// the response cache.
    std::shared_ptr<const void> snapshot;
    uint64_t epoch = 0;
    bool gangable = false;
    bool cache_populate = false;

    const uint8_t* body() const { return payload.data() + body_offset; }
    size_t body_size() const { return payload.size() - body_offset; }
  };
  using Batch = std::vector<Request>;

  /// One encoded reply, split for scatter-gather delivery: `head` is the
  /// frame prefix plus the 28 bytes through the message header (per-request:
  /// it carries the requester's id), `tail` is the refcounted payload after
  /// the header (status + body), shareable with the response cache. Queued
  /// as two write buffers, gathered into one writev.
  struct ReplyFrame {
    std::vector<uint8_t> head;
    SlabPool::Slice tail;
    size_t size() const { return head.size() + tail.size(); }
  };

  /// What a server puts behind the front end.
  class Handler {
   public:
    virtual ~Handler() = default;
    /// served_rows and dim of a kHealth reply (the front end sets draining).
    virtual void FillHealth(protocol::HealthReply* reply) const = 0;
    /// The handler's fields of a kStats reply; the front end's are set.
    virtual void FillStats(protocol::ServerStatsSnapshot* stats) const = 0;
    /// I/O thread, before admission: may tag the request and may answer it
    /// (returning true) without admission, e.g. from a cache.
    virtual bool AnswerInline(Request* req) {
      (void)req;
      return false;
    }
    /// I/O thread: takes admitted requests; each must be answered exactly
    /// once, from any thread. Must not block.
    virtual void Execute(Batch batch) = 0;
  };

  /// `handler` must outlive the front end.
  FrontEnd(const Options& options, Handler* handler);
  ~FrontEnd();

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Binds the port and starts the I/O threads.
  Status Start();
  uint16_t port() const { return port_; }
  bool draining() const { return state_.load() != State::kRunning; }

  /// Stops accepting and sheds new requests. Safe to call more than once.
  void RequestDrain();
  /// RequestDrain, then waits until every admitted request has finished.
  void AwaitIdle();
  /// Flushes pending replies (bounded), closes every connection, joins the
  /// I/O threads. Call after AwaitIdle, once no handler thread can Send.
  void Stop();

  // --- reply path (any thread) ---------------------------------------------

  /// Records an admitted request's latency and outcome and releases its
  /// admission slot. Call before sending its reply, so a client that has
  /// seen a reply sees it counted in the next stats request.
  void Finish(const Request& req, const Status& status);
  /// Records the latency of a reply answered without admission.
  void RecordInlineReply(const Request& req);

  /// Encodes a reply frame: status, plus the body `encode_body` writes
  /// when the status is OK.
  template <typename EncodeBody>
  ReplyFrame EncodeReply(const Request& req, const Status& status,
                         uint32_t extra_flags, EncodeBody&& encode_body) {
    std::vector<uint8_t> payload;
    WireWriter w(&payload);
    protocol::MessageHeader header;
    header.type = req.header.type;
    header.flags = protocol::kFlagReply | extra_flags;
    header.request_id = req.header.request_id;
    EncodeMessageHeader(header, &w);
    protocol::EncodeStatus(status, &w);
    if (status.ok()) encode_body(&w);
    return FrameReply(payload);
  }
  /// Queues an encoded reply on the request's connection (direct when on
  /// its loop, posted otherwise).
  void Send(const Request& req, ReplyFrame frame);
  /// EncodeReply + Send.
  template <typename EncodeBody>
  void Reply(const Request& req, const Status& status, uint32_t extra_flags,
             EncodeBody&& encode_body) {
    Send(req, EncodeReply(req, status, extra_flags,
                          std::forward<EncodeBody>(encode_body)));
  }
  void ReplyError(const Request& req, const Status& status,
                  uint32_t extra_flags) {
    Reply(req, status, extra_flags, [](WireWriter*) {});
  }

  /// Handler-side events that land in the shared stats reply.
  void CountDeadlineTimeout() {
    counters_.deadline_timeouts.fetch_add(1, std::memory_order_relaxed);
  }
  void CountPartialReply() {
    counters_.partial_replies.fetch_add(1, std::memory_order_relaxed);
  }

  /// Front-end counters plus the handler's FillStats (the snapshot a kStats
  /// request returns).
  protocol::ServerStatsSnapshot Stats() const;

 private:
  enum class State { kRunning, kDraining, kStopped };
  struct IoLoop;

  /// Moves an encoded payload's tail (after the message header) into a
  /// slab slice and builds the frame head.
  ReplyFrame FrameReply(const std::vector<uint8_t>& payload);

  // --- reactor path (loop threads) -----------------------------------------
  void OnAcceptReady();
  void BackOffAccept();
  void AdoptConnection(Socket sock);
  void RegisterConnection(IoLoop* home, std::shared_ptr<Conn> conn);
  void OnConnEvent(const std::shared_ptr<Conn>& conn, uint32_t ready);
  /// Parses complete frames out of the connection's read buffer,
  /// dispatching each; gangs admitted requests. Returns false when
  /// reading stopped (protocol violation).
  bool ProcessFrames(const std::shared_ptr<Conn>& conn, Batch* gang);
  /// Dispatches one decoded frame payload. Returns false when the
  /// connection must stop reading (header violation).
  bool HandleFrame(const std::shared_ptr<Conn>& conn,
                   std::vector<uint8_t> payload, Batch* gang);
  void FlushGang(Batch* gang);
  void HandleHealth(const Request& req);
  void HandleStats(const Request& req);
  void ArmIdleTimer(const std::shared_ptr<Conn>& conn);
  /// Flushes the connection's write queue, managing EPOLLOUT interest and
  /// the write-stall timer; closes on error.
  void FlushConn(const std::shared_ptr<Conn>& conn);
  /// Logical close (see Conn::read_eof): closes outright once no admitted
  /// replies or queued writes remain.
  void StopReading(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  /// Loop-thread delivery of an encoded reply frame: queues head then tail
  /// back to back (one writev gathers both; no payload copy).
  void DeliverReply(const std::shared_ptr<Conn>& conn, ReplyFrame frame,
                    bool admitted);
  void ShutdownLoopTask(IoLoop* io);
  void CheckLoopDrained(IoLoop* io);

  Options options_;
  Handler* const handler_;
  uint16_t port_ = 0;

  TcpListener listener_;
  std::vector<std::unique_ptr<IoLoop>> loops_;
  size_t next_loop_ = 0;  // loop-0 thread only (round-robin assignment)

  std::atomic<State> state_{State::kStopped};
  bool started_ = false;

  // Accept-backoff state (loop-0 thread only; accept_rng_ jitters the
  // re-arm interval and is therefore fine unguarded).
  bool listener_registered_ = false;
  uint64_t accept_backoff_ms_ = 0;
  size_t debug_fail_remaining_ = 0;
  Rng accept_rng_{std::random_device{}()};

  // Admission control: requests admitted and not yet finished.
  std::mutex admission_mu_;
  std::condition_variable idle_cv_;  // AwaitIdle waits for in_flight_ == 0
  size_t in_flight_ = 0;             // guarded by admission_mu_

  std::atomic<size_t> open_connections_{0};

  // Counters (relaxed atomics; aggregated into ServerStatsSnapshot).
  struct Counters {
    std::atomic<uint64_t> connections_accepted{0};
    std::atomic<uint64_t> connections_closed{0};
    std::atomic<uint64_t> accept_errors{0};
    std::atomic<uint64_t> protocol_errors{0};
    std::atomic<uint64_t> requests_total{0};
    std::atomic<uint64_t> replies_ok{0};
    std::atomic<uint64_t> replies_error{0};
    std::atomic<uint64_t> rejected_overload{0};
    std::atomic<uint64_t> rejected_draining{0};
    /// mdsd: requests that expired while queued; mdsc: backend legs whose
    /// read deadline fired.
    std::atomic<uint64_t> deadline_timeouts{0};
    /// Replies answered from a strict subset of shards (kFlagPartial).
    std::atomic<uint64_t> partial_replies{0};
    std::atomic<uint64_t> bytes_in{0};
    std::atomic<uint64_t> bytes_out{0};
    std::atomic<uint64_t> in_flight_peak{0};
    /// Post-encode payload memcpys on the reply path: one per encoded
    /// reply when its scratch encoding moves into a slab slice, zero per
    /// cache hit. The zero-copy regression gauge — a pure-hit workload
    /// must not move it.
    std::atomic<uint64_t> reply_tail_copies{0};
    std::atomic<uint64_t> type_errors[protocol::kNumRequestTypes] = {};
  };
  mutable Counters counters_;
  Histogram latency_us_[protocol::kNumRequestTypes];
};

}  // namespace mds

#endif  // MDS_SERVER_FRONT_END_H_
