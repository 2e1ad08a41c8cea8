#include "servebench/workload.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_set>

#include "core/knn.h"
#include "geom/box.h"
#include "sdss/catalog.h"
#include "server/wire.h"

namespace servebench {

using mds::Box;
using mds::PointSet;
using mds::Rng;
using mds::Status;
namespace protocol = mds::protocol;

namespace {

// The catalog is generated from this many rows per workload; the dataset
// seed is a separate argument so a claim can be confirmed on a second
// catalog as well as on a second request stream.
const WorkloadSpec kWorkloads[] = {
    // engine_mix: 4M rows served from an mmap'd dataset file through a
    // BufferPool holding about a quarter of the 13,699 table pages; every
    // request distinct. The planner keeps the kd-tree up to ~80% of the
    // table, so 0.3% of boxes are 2.5-4 mag wide to reach the full-scan side
    // of the crossover.
    {"engine_mix", 4000000, 1, 3425, {0.40, 0.20, 0.30, 0.10}, 0.02, 0.6,
     0.003, 2.5, 4.0, 1000, {1, 10, 100}, 0.05, {1.0, 2.0, 5.0}, 100, 0, 0.0,
     0, 1200, 24},
    // cache_hot: 1M rows that fit the pool and the response cache; Zipf
    // draws over 4,096 small distinct requests, and a kReload("") hot swap
    // after every 25,000 requests of client 0. The swaps make ~3% of
    // requests repopulation misses, so p99 is a miss latency; full-scan
    // boxes are left out because their rare misses made p99 unsteady.
    {"cache_hot", 1000000, 1, 0, {0.40, 0.30, 0.25, 0.05}, 0.02, 0.1, 0.0,
     0.0, 0.0, 100, {10}, 0.05, {1.0}, 50, 4096, 1.0, 25000, 0, 48},
    // sharded_fanout: the 1M catalog split into 4 kd-subtree shards, one
    // mdsd (1 worker) per shard behind one mdsc coordinator; selective
    // requests plus 2% full-scan-wide boxes that span every shard.
    {"sharded_fanout", 1000000, 4, 0, {0.35, 0.30, 0.30, 0.05}, 0.02, 0.1,
     0.02, 2.5, 4.0, 1000, {10}, 0.05, {2.0}, 100, 0, 0.0, 0, 800, 32},
};

double LogUniform(Rng* rng, double lo, double hi) {
  return std::exp(rng->NextUniform(std::log(lo), std::log(hi)));
}

Request Generate(const WorkloadSpec& spec, const PointSet& points, Rng* rng,
                 WideCadence* wide_cadence) {
  Request q;
  const double u = rng->NextDouble();
  double acc = 0.0;
  q.kind = Kind::kSample;
  for (size_t i = 0; i < kNumKinds; ++i) {
    acc += spec.mix[i];
    if (u < acc) {
      q.kind = static_cast<Kind>(i);
      break;
    }
  }
  const float* centre = points.point(rng->NextBounded(points.size()));
  const size_t dim = points.dim();
  if (q.kind == Kind::kKnn) {
    q.point.resize(dim);
    for (size_t j = 0; j < dim; ++j) {
      q.point[j] = centre[j] + spec.knn_jitter * rng->NextGaussian();
    }
    q.k = spec.knn_k[rng->NextBounded(spec.knn_k.size())];
    return q;
  }
  const bool wide = wide_cadence->Next();
  const double half = wide ? LogUniform(rng, spec.wide_lo, spec.wide_hi)
                           : LogUniform(rng, spec.half_lo, spec.half_hi);
  q.lo.resize(dim);
  q.hi.resize(dim);
  for (size_t j = 0; j < dim; ++j) {
    q.lo[j] = centre[j] - half;
    q.hi[j] = centre[j] + half;
  }
  if (q.kind == Kind::kBox) q.limit = spec.box_limit;
  if (q.kind == Kind::kSample) {
    q.percent =
        spec.sample_percent[rng->NextBounded(spec.sample_percent.size())];
    q.n = spec.sample_n;
    q.sample_seed = rng->NextU64();
  }
  return q;
}

uint64_t Fnv(const void* data, size_t n, uint64_t h) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  // SplitMix-style mix so neighbouring stream ids get unrelated states.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Status Mismatch(const Request& q, const std::string& what) {
  return Status::Internal(std::string("oracle mismatch on ") +
                          KindName(q.kind) + " request: " + what);
}

}  // namespace

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kCount:
      return "count";
    case Kind::kBox:
      return "box";
    case Kind::kKnn:
      return "knn";
    case Kind::kSample:
      return "sample";
  }
  return "?";
}

protocol::MessageType WireType(Kind kind) {
  switch (kind) {
    case Kind::kCount:
      return protocol::MessageType::kPointCount;
    case Kind::kBox:
      return protocol::MessageType::kBoxQuery;
    case Kind::kKnn:
      return protocol::MessageType::kKnn;
    case Kind::kSample:
      return protocol::MessageType::kTableSample;
  }
  return protocol::MessageType::kHealth;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<Request> MakeDistinct(const WorkloadSpec& spec,
                                  const PointSet& points, uint64_t seed) {
  Rng rng(StreamSeed(seed, 0xd15c));
  WideCadence wide(spec, &rng);
  std::vector<Request> table;
  table.reserve(spec.distinct);
  for (size_t i = 0; i < spec.distinct; ++i) {
    table.push_back(Generate(spec, points, &rng, &wide));
  }
  return table;
}

WideCadence::WideCadence(const WorkloadSpec& spec, Rng* rng) {
  if (spec.wide_share > 0.0) {
    period_ = std::max<uint64_t>(1, std::llround(1.0 / spec.wide_share));
    phase_ = rng->NextBounded(period_);
  }
}

bool WideCadence::Next() {
  if (period_ == 0) return false;
  return seen_++ % period_ == phase_;
}

RequestStream::RequestStream(const WorkloadSpec& spec, const PointSet& points,
                             const std::vector<Request>* distinct,
                             uint64_t seed, uint64_t stream)
    : spec_(&spec),
      points_(&points),
      distinct_(distinct),
      rng_(StreamSeed(seed, stream)),
      wide_(spec, &rng_) {
  if (distinct_ != nullptr && !distinct_->empty()) {
    // Zipf-like skew: rank r drawn with weight 1 / (r + 1)^s. The table is
    // already in random order, so rank r is simply entry r.
    zipf_cdf_.resize(distinct_->size());
    double total = 0.0;
    for (size_t r = 0; r < zipf_cdf_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), spec.zipf_s);
      zipf_cdf_[r] = total;
    }
    for (double& c : zipf_cdf_) c /= total;
  }
}

Request RequestStream::Next() {
  if (zipf_cdf_.empty()) return Generate(*spec_, *points_, &rng_, &wide_);
  const double u = rng_.NextDouble();
  size_t r = static_cast<size_t>(
      std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
      zipf_cdf_.begin());
  if (r >= distinct_->size()) r = distinct_->size() - 1;
  return (*distinct_)[r];
}

uint64_t DigestRequest(const Request& q, uint64_t h) {
  const uint8_t kind = static_cast<uint8_t>(q.kind);
  h = Fnv(&kind, 1, h);
  h = Fnv(q.lo.data(), q.lo.size() * sizeof(double), h);
  h = Fnv(q.hi.data(), q.hi.size() * sizeof(double), h);
  h = Fnv(q.point.data(), q.point.size() * sizeof(double), h);
  h = Fnv(&q.limit, sizeof(q.limit), h);
  h = Fnv(&q.k, sizeof(q.k), h);
  h = Fnv(&q.percent, sizeof(q.percent), h);
  h = Fnv(&q.n, sizeof(q.n), h);
  return Fnv(&q.sample_seed, sizeof(q.sample_seed), h);
}

Reply Issue(mds::QueryClient* client, const Request& q) {
  Reply out;
  auto take_query = [&](mds::Result<mds::QueryClient::QueryResult> r) {
    if (!r.ok()) {
      out.status = r.status();
      return;
    }
    out.row_count = r->row_count;
    out.objids = std::move(r->objids);
  };
  switch (q.kind) {
    case Kind::kCount:
      take_query(client->PointCountDetailed(Box(q.lo, q.hi)));
      break;
    case Kind::kBox:
      take_query(client->BoxQuery(Box(q.lo, q.hi), q.limit));
      break;
    case Kind::kSample:
      take_query(client->TableSample(Box(q.lo, q.hi), q.percent, q.n,
                                     q.sample_seed));
      break;
    case Kind::kKnn: {
      auto r = client->Knn(q.point, q.k);
      if (!r.ok()) {
        out.status = r.status();
      } else {
        out.neighbors = std::move(r->neighbors);
        out.row_count = out.neighbors.size();
      }
      break;
    }
  }
  return out;
}

std::vector<uint8_t> RequestPayload(const Request& q, uint64_t request_id,
                                    size_t* body_offset) {
  std::vector<uint8_t> payload;
  mds::WireWriter w(&payload);
  protocol::MessageHeader header;
  header.type = WireType(q.kind);
  header.request_id = request_id;
  protocol::EncodeMessageHeader(header, &w);
  w.PutU32(0);  // deadline prefix: no deadline
  *body_offset = payload.size();
  switch (q.kind) {
    case Kind::kCount:
    case Kind::kBox: {
      protocol::BoxQueryRequest req;
      req.lo = q.lo;
      req.hi = q.hi;
      req.limit = q.limit;
      protocol::EncodeBoxQueryRequest(req, &w);
      break;
    }
    case Kind::kKnn: {
      protocol::KnnRequest req;
      req.point = q.point;
      req.k = q.k;
      protocol::EncodeKnnRequest(req, &w);
      break;
    }
    case Kind::kSample: {
      protocol::TableSampleRequest req;
      req.lo = q.lo;
      req.hi = q.hi;
      req.percent = q.percent;
      req.n = q.n;
      req.seed = q.sample_seed;
      protocol::EncodeTableSampleRequest(req, &w);
      break;
    }
  }
  return payload;
}

Oracle::Oracle(const mds::ServedDataset& full) : full_(&full) {
  const auto& order = full.tree().clustered_order();
  position_.assign(full.points().size(), 0);
  for (size_t pos = 0; pos < order.size(); ++pos) {
    position_[order[pos]] = static_cast<uint32_t>(pos);
  }
}

Status Oracle::Check(const Request& q, const Reply& r) const {
  if (!r.status.ok()) return Mismatch(q, "error reply " + r.status.ToString());
  const PointSet& points = full_->points();
  if (q.kind == Kind::kKnn) {
    mds::KdKnnSearcher searcher(&full_->tree());
    const std::vector<mds::Neighbor> truth =
        searcher.BruteForce(q.point.data(), q.k);
    if (truth.size() != r.neighbors.size()) {
      return Mismatch(q, "neighbor count " +
                             std::to_string(r.neighbors.size()) + " != " +
                             std::to_string(truth.size()));
    }
    for (size_t i = 0; i < truth.size(); ++i) {
      if (static_cast<int64_t>(truth[i].id) != r.neighbors[i].id ||
          std::memcmp(&truth[i].squared_distance,
                      &r.neighbors[i].squared_distance, sizeof(double)) != 0) {
        return Mismatch(q, "neighbor " + std::to_string(i) + " differs");
      }
    }
    return Status::OK();
  }

  const Box box(q.lo, q.hi);
  std::vector<uint32_t> inside;  // clustered positions of matching rows
  for (size_t i = 0; i < points.size(); ++i) {
    if (box.Contains(points.point(i))) inside.push_back(position_[i]);
  }
  const std::vector<uint64_t>& order = full_->tree().clustered_order();
  if (q.kind == Kind::kSample) {
    if (r.objids.size() > q.n || r.row_count != r.objids.size()) {
      return Mismatch(q, "sample size " + std::to_string(r.objids.size()));
    }
    std::unordered_set<int64_t> seen;
    for (int64_t id : r.objids) {
      if (id < 0 || static_cast<uint64_t>(id) >= points.size() ||
          !box.Contains(points.point(static_cast<size_t>(id))) ||
          !seen.insert(id).second) {
        return Mismatch(q, "sampled objid " + std::to_string(id) +
                               " outside the box or repeated");
      }
    }
    return Status::OK();
  }
  if (r.row_count != inside.size()) {
    return Mismatch(q, "row_count " + std::to_string(r.row_count) +
                           " != brute force " +
                           std::to_string(inside.size()));
  }
  if (q.kind == Kind::kCount) return Status::OK();
  std::sort(inside.begin(), inside.end());
  const size_t expect =
      q.limit != 0 ? std::min<size_t>(q.limit, inside.size()) : inside.size();
  if (r.objids.size() != expect) {
    return Mismatch(q, "objid count " + std::to_string(r.objids.size()) +
                           " != " + std::to_string(expect));
  }
  for (size_t i = 0; i < expect; ++i) {
    if (r.objids[i] != static_cast<int64_t>(order[inside[i]])) {
      return Mismatch(q, "objid " + std::to_string(i) +
                             " is not the clustered-order match");
    }
  }
  return Status::OK();
}

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values->size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  if (index >= values->size()) index = values->size() - 1;
  return (*values)[index];
}

}  // namespace servebench
