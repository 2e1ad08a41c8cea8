// Workload definitions for the serving benchmark: the request mixes, the
// seeded request streams, the wire exchange of one request and the
// brute-force oracle its replies are checked against.

#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "geom/point_set.h"
#include "server/client.h"
#include "server/dataset.h"
#include "server/protocol.h"

namespace servebench {

/// Request types the workloads send (the four cacheable query types).
enum class Kind : uint8_t { kCount = 0, kBox = 1, kKnn = 2, kSample = 3 };
inline constexpr size_t kNumKinds = 4;
const char* KindName(Kind kind);
mds::protocol::MessageType WireType(Kind kind);

/// One generated request: exactly the inputs the server receives.
struct Request {
  Kind kind = Kind::kCount;
  std::vector<double> lo, hi;  // count / box / sample
  std::vector<double> point;   // kNN probe
  uint64_t limit = 0;          // box TOP(limit); 0 = all
  uint32_t k = 0;              // kNN
  double percent = 0.0;        // TABLESAMPLE SYSTEM(percent)
  uint64_t n = 0;              // TABLESAMPLE TOP(n)
  uint64_t sample_seed = 0;    // TABLESAMPLE page-sampling seed
};

/// A workload: its dataset, serving topology and request mix.
struct WorkloadSpec {
  const char* name;
  uint64_t rows;        // catalog rows (dataset seed is separate)
  uint32_t shards;      // 1 = one mdsd; N > 1 = mdsc over N mdsd backends
  size_t pool_pages;    // BufferPool pages per backend; 0 = library default
  double mix[kNumKinds];  // shares of count, box, kNN, sample
  double half_lo, half_hi;  // box half-width, log-uniform (mag)
  double wide_share;        // share of boxes drawn from the wide range,
                            // sent at a fixed cadence (see WideCadence)
  double wide_lo, wide_hi;
  uint64_t box_limit;             // TOP(n) on box queries
  std::vector<uint32_t> knn_k;    // k drawn uniformly from this list
  double knn_jitter;              // probe = stored point + N(0, jitter)
  std::vector<double> sample_percent;
  uint64_t sample_n;
  size_t distinct;     // 0 = every request fresh; else Zipf over this many
  double zipf_s;
  uint64_t reload_every;  // client-0 requests between kReload(""); 0 = none
  size_t warmup_requests;  // fixed warm-up count, part of set-up
  size_t check_requests;   // oracle sample before and after the window
};

/// The three workloads, by name; null when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);

/// The repeated-request table of a workload with spec.distinct > 0.
std::vector<Request> MakeDistinct(const WorkloadSpec& spec,
                                  const mds::PointSet& points, uint64_t seed);

/// Which box-like requests of a stream are wide: one in every
/// round(1 / wide_share), at a seeded phase. A fixed cadence rather than a
/// coin per request, so every run of a given length sends the same number
/// of full-scan requests and the seed does not move the heavy tail.
class WideCadence {
 public:
  WideCadence(const WorkloadSpec& spec, mds::Rng* rng);
  bool Next();

 private:
  uint64_t period_ = 0;  // 0 = never wide
  uint64_t phase_ = 0;
  uint64_t seen_ = 0;
};

/// Request stream: a pure function of (workload, data, seed, stream id).
/// Stream ids name independent streams: client threads, warm-up, checks.
class RequestStream {
 public:
  RequestStream(const WorkloadSpec& spec, const mds::PointSet& points,
                const std::vector<Request>* distinct, uint64_t seed,
                uint64_t stream);

  Request Next();

 private:
  const WorkloadSpec* spec_;
  const mds::PointSet* points_;
  const std::vector<Request>* distinct_;
  std::vector<double> zipf_cdf_;
  mds::Rng rng_;
  WideCadence wide_;
};

/// FNV-1a digest of a request's wire-relevant fields, chained onto `h`.
uint64_t DigestRequest(const Request& q, uint64_t h);

/// What one exchange returned (the answer fields of the reply).
struct Reply {
  mds::Status status = mds::Status::OK();
  uint64_t row_count = 0;
  std::vector<int64_t> objids;
  std::vector<mds::protocol::WireNeighbor> neighbors;
};

/// Sends `q` over `client` and waits for the reply.
Reply Issue(mds::QueryClient* client, const Request& q);

/// The request payload exactly as QueryClient frames it: message header,
/// deadline prefix (0) and body. `body_offset` receives where the body
/// (the response-cache key bytes) starts.
std::vector<uint8_t> RequestPayload(const Request& q, uint64_t request_id,
                                    size_t* body_offset);

/// Brute force over the full point set. Counts and kNN lists must match
/// exactly (kNN against KdKnnSearcher::BruteForce, tie order included);
/// box objids must be the first min(limit, count) matches in clustered
/// order; every sampled objid must lie in the box, once, at most n of them.
class Oracle {
 public:
  explicit Oracle(const mds::ServedDataset& full);
  mds::Status Check(const Request& q, const Reply& r) const;

 private:
  const mds::ServedDataset* full_;
  std::vector<uint32_t> position_;  // point id -> clustered row position
};

/// Exact nearest-rank percentile of `values` (sorted in place); 0 if empty.
double Percentile(std::vector<double>* values, double p);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
