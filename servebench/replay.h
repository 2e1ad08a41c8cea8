// Traced replay: after a request has gone over the wire, its layer calls
// are re-executed in the client thread, in the order the server makes
// them, each inside a child span carrying the request id. The replay runs
// against an independently loaded copy of every served dataset (same pool
// size) and a mirror ResponseCache, so it never perturbs the server.

#ifndef SERVEBENCH_REPLAY_H_
#define SERVEBENCH_REPLAY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "server/dataset.h"
#include "server/protocol.h"
#include "server/response_cache.h"
#include "servebench/trace.h"
#include "servebench/workload.h"

namespace servebench {

/// Replay-side state of one backend (mdsd) of the topology.
struct ReplayBackend {
  std::shared_ptr<const mds::ServedDataset> dataset;  // the replay copy
  std::unique_ptr<mds::ResponseCache> cache;           // mirror cache
  std::mutex seen_mu;
  std::unordered_set<std::string> seen;  // bodies cached in any epoch
};

/// Work counts gathered by one thread's replays.
struct ReplayCounters {
  uint64_t mirror_lookups = 0;
  uint64_t mirror_hits = 0;
  uint64_t repopulate_misses = 0;  // misses on a body cached before a reload
  uint64_t planned = 0;            // planner decisions
  uint64_t kd_chosen = 0;
  double estimated_pages = 0.0;    // chosen path's page estimate
  uint64_t scanned_queries = 0;    // executed box-like queries
  uint64_t rows_scanned = 0;
  uint64_t rows_returned = 0;
  uint64_t pages_fetched = 0;
  uint64_t planned_pages_fetched = 0;  // pages_fetched of planned queries
  double scan_ns = 0.0;
  uint64_t knn_queries = 0;
  uint64_t knn_points = 0;
  uint64_t knn_leaves = 0;
  uint64_t replies = 0;
  uint64_t reply_bytes = 0;  // encoded reply frames

  void Add(const ReplayCounters& o);
};

class Replayer {
 public:
  /// `coordinated`: the topology is mdsc over backends.size() shards.
  Replayer(std::vector<std::unique_ptr<ReplayBackend>> backends,
           bool coordinated);

  /// Replays request `q` (id `request_id`) into `spans`. `rng` picks the
  /// page the pool probe fetches.
  void Replay(const Request& q, uint64_t request_id, SpanBuffer* spans,
              ReplayCounters* counters, mds::Rng* rng);

  /// A kReload landed: the mirror caches move to the next epoch.
  void BumpEpoch() { epoch_.fetch_add(1, std::memory_order_acq_rel); }

  const std::vector<std::unique_ptr<ReplayBackend>>& backends() const {
    return backends_;
  }

 private:
  /// One mdsd's handling of a request: decode, cache lookup, then on a
  /// miss plan + pool probe + scan (or kNN), encode, frame CRC, populate.
  /// Fills `reply` / `neighbors` with the answer for a coordinator merge
  /// and returns the size of the encoded reply tail (status + body).
  size_t ReplayMdsd(ReplayBackend* backend, const Request& q,
                  uint64_t request_id, SpanBuffer* spans,
                  ReplayCounters* counters, mds::Rng* rng,
                  mds::protocol::QueryReply* reply,
                  std::vector<mds::protocol::WireNeighbor>* neighbors);

  std::vector<std::unique_ptr<ReplayBackend>> backends_;
  bool coordinated_;
  std::atomic<uint64_t> epoch_{1};
};

}  // namespace servebench

#endif  // SERVEBENCH_REPLAY_H_
