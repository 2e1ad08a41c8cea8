#include "servebench/replay.h"

#include <algorithm>

#include "common/crc32c.h"
#include "core/access_path.h"
#include "core/knn.h"
#include "core/query_planner.h"
#include "geom/polyhedron.h"
#include "server/coordinator.h"
#include "server/wire.h"
#include "storage/page_checksum.h"

namespace servebench {

using mds::Status;
namespace protocol = mds::protocol;

namespace {

Status DecodeRequest(const std::vector<uint8_t>& payload, Kind kind) {
  mds::WireReader r(payload);
  protocol::MessageHeader header;
  Status st = protocol::DecodeMessageHeader(&r, &header);
  if (!st.ok()) return st;
  r.GetU32();  // deadline prefix
  switch (kind) {
    case Kind::kCount:
    case Kind::kBox: {
      protocol::BoxQueryRequest req;
      st = protocol::DecodeBoxQueryRequest(&r, &req);
      break;
    }
    case Kind::kKnn: {
      protocol::KnnRequest req;
      st = protocol::DecodeKnnRequest(&r, &req);
      break;
    }
    case Kind::kSample: {
      protocol::TableSampleRequest req;
      st = protocol::DecodeTableSampleRequest(&r, &req);
      break;
    }
  }
  return st.ok() ? r.ExpectEnd() : st;
}

std::vector<uint8_t> ReplyHeader(Kind kind, uint64_t request_id) {
  std::vector<uint8_t> head;
  mds::WireWriter w(&head);
  protocol::MessageHeader header;
  header.type = WireType(kind);
  header.flags = protocol::kFlagReply;
  header.request_id = request_id;
  protocol::EncodeMessageHeader(header, &w);
  return head;
}

/// Encodes an OK reply tail (status + body), as the server's reply path.
std::vector<uint8_t> EncodeTail(Kind kind, const protocol::QueryReply& reply,
                                const std::vector<protocol::WireNeighbor>& nn) {
  std::vector<uint8_t> tail;
  mds::WireWriter w(&tail);
  protocol::EncodeStatus(Status::OK(), &w);
  if (kind == Kind::kKnn) {
    protocol::KnnReply knn;
    knn.neighbors = nn;
    protocol::EncodeKnnReply(knn, &w);
  } else {
    protocol::EncodeQueryReply(reply, &w);
  }
  return tail;
}

uint32_t FrameCrc(const std::vector<uint8_t>& head, const uint8_t* tail,
                  size_t tail_len) {
  return mds::Crc32c(mds::Crc32c(head.data(), head.size()), tail, tail_len);
}

/// One BufferPool::Fetch of a seeded-random table page (classified by its
/// `physical` out-param), then a CRC verify of the fetched page bytes.
void ProbePool(const mds::ServedDataset& ds, SpanBuffer* spans,
               uint64_t request_id, mds::Rng* rng) {
  const mds::Table* table = ds.binding().table;
  const mds::PageId id = table->page_id(rng->NextBounded(table->num_pages()));
  bool physical = false;
  auto guard = [&] {
    ScopedSpan span(spans, "pool.fetch", request_id);
    auto fetched = ds.pool()->Fetch(id, &physical);
    span.Rename(physical ? "pool.fetch_miss" : "pool.fetch_hit");
    return fetched;
  }();
  if (!guard.ok()) return;
  ScopedSpan span(spans, "crc.page_verify", request_id);
  volatile auto verdict = mds::VerifyPageChecksum(guard->page());
  (void)verdict;
}

}  // namespace

void ReplayCounters::Add(const ReplayCounters& o) {
  mirror_lookups += o.mirror_lookups;
  mirror_hits += o.mirror_hits;
  repopulate_misses += o.repopulate_misses;
  planned += o.planned;
  kd_chosen += o.kd_chosen;
  estimated_pages += o.estimated_pages;
  scanned_queries += o.scanned_queries;
  rows_scanned += o.rows_scanned;
  rows_returned += o.rows_returned;
  pages_fetched += o.pages_fetched;
  planned_pages_fetched += o.planned_pages_fetched;
  scan_ns += o.scan_ns;
  knn_queries += o.knn_queries;
  knn_points += o.knn_points;
  knn_leaves += o.knn_leaves;
  replies += o.replies;
  reply_bytes += o.reply_bytes;
}

Replayer::Replayer(std::vector<std::unique_ptr<ReplayBackend>> backends,
                   bool coordinated)
    : backends_(std::move(backends)), coordinated_(coordinated) {}

void Replayer::Replay(const Request& q, uint64_t request_id,
                      SpanBuffer* spans, ReplayCounters* counters,
                      mds::Rng* rng) {
  protocol::QueryReply merged;
  std::vector<protocol::WireNeighbor> merged_nn;
  const uint64_t limit = q.kind == Kind::kSample ? q.n : q.limit;

  if (!coordinated_) {
    protocol::QueryReply reply;
    std::vector<protocol::WireNeighbor> nn;
    const size_t tail_bytes = ReplayMdsd(backends_[0].get(), q, request_id,
                                         spans, counters, rng, &reply, &nn);
    counters->replies++;
    counters->reply_bytes += protocol::kFramePrefixBytes +
                             protocol::kMessageHeaderBytes + tail_bytes;
    // A direct server is a one-leg topology: the merge a coordinator would
    // run over this reply.
    ScopedSpan span(spans, "coord.merge", request_id);
    if (q.kind == Kind::kKnn) {
      merged_nn = mds::MergeKnnNeighbors({std::move(nn)}, q.k);
    } else {
      std::vector<protocol::QueryReply> one;
      one.push_back(std::move(reply));
      merged = mds::MergeQueryReplies(std::move(one), limit);
    }
    return;
  }

  {
    size_t body_offset = 0;
    const std::vector<uint8_t> payload =
        RequestPayload(q, request_id, &body_offset);
    ScopedSpan span(spans, "protocol.decode", request_id);
    volatile bool ok = DecodeRequest(payload, q.kind).ok();
    (void)ok;
  }
  std::vector<protocol::QueryReply> legs(backends_.size());
  std::vector<std::vector<protocol::WireNeighbor>> leg_nn(backends_.size());
  for (size_t s = 0; s < backends_.size(); ++s) {
    ScopedSpan span(spans, "coord.leg", request_id);
    Request sub = q;
    if (q.kind == Kind::kKnn) {
      // Per-shard k_i = min(k, shard rows), as the coordinator sends it.
      sub.k = static_cast<uint32_t>(std::min<uint64_t>(
          q.k, backends_[s]->dataset->num_rows()));
    }
    ReplayMdsd(backends_[s].get(), sub, request_id, spans, counters, rng,
               &legs[s], &leg_nn[s]);
  }
  {
    ScopedSpan span(spans, "coord.merge", request_id);
    if (q.kind == Kind::kKnn) {
      merged_nn = mds::MergeKnnNeighbors(leg_nn, q.k);
    } else {
      merged = mds::MergeQueryReplies(std::move(legs), limit);
    }
  }
  std::vector<uint8_t> tail;
  {
    ScopedSpan span(spans, "protocol.encode", request_id);
    tail = EncodeTail(q.kind, merged, merged_nn);
  }
  const std::vector<uint8_t> head = ReplyHeader(q.kind, request_id);
  {
    ScopedSpan span(spans, "crc32c.frame", request_id);
    volatile uint32_t crc = FrameCrc(head, tail.data(), tail.size());
    (void)crc;
  }
  counters->replies++;
  counters->reply_bytes +=
      protocol::kFramePrefixBytes + head.size() + tail.size();
}

size_t Replayer::ReplayMdsd(ReplayBackend* backend, const Request& q,
                            uint64_t request_id, SpanBuffer* spans,
                            ReplayCounters* counters, mds::Rng* rng,
                            protocol::QueryReply* reply,
                            std::vector<protocol::WireNeighbor>* neighbors) {
  const mds::ServedDataset& ds = *backend->dataset;
  size_t body_offset = 0;
  const std::vector<uint8_t> payload =
      RequestPayload(q, request_id, &body_offset);
  const uint8_t* body = payload.data() + body_offset;
  const size_t body_len = payload.size() - body_offset;
  const auto type = static_cast<uint16_t>(WireType(q.kind));
  const std::vector<uint8_t> head = ReplyHeader(q.kind, request_id);

  {
    ScopedSpan span(spans, "protocol.decode", request_id);
    volatile bool ok = DecodeRequest(payload, q.kind).ok();
    (void)ok;
  }

  const uint64_t epoch = epoch_.load(std::memory_order_acquire);
  mds::ResponseCache::CachedReply cached;
  bool hit = false;
  {
    ScopedSpan span(spans, "cache.lookup", request_id);
    hit = backend->cache->Lookup(type, epoch, body, body_len, &cached);
  }
  counters->mirror_lookups++;
  std::string key(1, static_cast<char>(type));
  key.append(reinterpret_cast<const char*>(body), body_len);
  if (hit) {
    counters->mirror_hits++;
    {
      // A hit is re-headed in place: only the frame CRC is recomputed.
      ScopedSpan span(spans, "crc32c.frame", request_id);
      volatile uint32_t crc =
          FrameCrc(head, cached.tail.data(), cached.tail.size());
      (void)crc;
    }
    // Decode the memoized answer for the caller's merge (not a server step).
    mds::WireReader r(cached.tail.data(), cached.tail.size());
    Status status = Status::OK();
    protocol::DecodeStatus(&r, &status);
    if (q.kind == Kind::kKnn) {
      protocol::KnnReply knn;
      protocol::DecodeKnnReply(&r, &knn);
      *neighbors = std::move(knn.neighbors);
    } else {
      protocol::DecodeQueryReply(&r, reply);
    }
    return cached.tail.size();
  }
  {
    std::lock_guard<std::mutex> lock(backend->seen_mu);
    if (backend->seen.count(key) != 0) counters->repopulate_misses++;
  }

  if (q.kind == Kind::kKnn) {
    mds::KnnStats knn_stats;
    std::vector<mds::Neighbor> found;
    {
      ScopedSpan span(spans, "knn", request_id);
      mds::KdKnnSearcher searcher(&ds.tree());
      found = searcher.BoundaryGrow(q.point.data(), q.k, &knn_stats);
    }
    counters->knn_queries++;
    counters->knn_points += knn_stats.points_examined;
    counters->knn_leaves += knn_stats.leaves_examined;
    neighbors->clear();
    for (const mds::Neighbor& n : found) {
      neighbors->push_back(protocol::WireNeighbor{
          static_cast<int64_t>(n.id), n.squared_distance});
    }
  } else {
    const mds::Box box(q.lo, q.hi);
    ProbePool(ds, spans, request_id, rng);
    mds::QueryStats stats;
    mds::Result<mds::StorageQueryResult> result =
        Status::Internal("query not executed");
    int64_t scan_start = 0;
    if (q.kind == Kind::kSample) {
      mds::Rng sample_rng(q.sample_seed);
      mds::TableSamplePath path(ds.binding(), box, q.percent, q.n,
                                &sample_rng);
      scan_start = NowNs();
      {
        ScopedSpan span(spans, "scan.sample", request_id);
        result = mds::ExecuteAccessPath(&path, &stats);
      }
      reply->chosen_path = path.name();
    } else {
      const mds::Polyhedron poly = mds::Polyhedron::FromBox(box);
      mds::QueryPlanner planner;
      mds::AccessPath* paths[2] = {nullptr, nullptr};
      size_t best = 0;
      {
        // Path construction is part of planning: KdTreePath walks the
        // tree for its row ranges in its constructor.
        ScopedSpan span(spans, "plan.choose", request_id);
        auto full = std::make_unique<mds::FullScanPath>(ds.binding(), box);
        auto kd = std::make_unique<mds::KdTreePath>(ds.binding(), ds.tree(),
                                                    poly);
        paths[0] = full.get();
        paths[1] = kd.get();
        planner.AddPath(std::move(full)).AddPath(std::move(kd));
        auto chosen = planner.ChooseBest();
        best = chosen.ok() ? *chosen : 0;
      }
      counters->planned++;
      if (best == 1) counters->kd_chosen++;
      counters->estimated_pages += paths[best]->Estimate().page_fetches;
      scan_start = NowNs();
      {
        ScopedSpan span(spans, best == 1 ? "scan.kd" : "scan.fullscan",
                        request_id);
        result = mds::ExecuteAccessPath(paths[best], &stats);
      }
      counters->planned_pages_fetched += stats.pages_fetched;
      reply->chosen_path = paths[best]->name();
    }
    counters->scan_ns += static_cast<double>(NowNs() - scan_start);
    if (!result.ok()) return 0;
    counters->scanned_queries++;
    counters->rows_scanned += stats.rows_scanned;
    counters->rows_returned += stats.rows_emitted;
    counters->pages_fetched += stats.pages_fetched;
    reply->row_count = result->objids.size();
    if (q.kind != Kind::kCount) {
      reply->objids = std::move(result->objids);
      if (q.limit != 0 && reply->objids.size() > q.limit) {
        reply->objids.resize(q.limit);
      }
    }
    reply->rows_scanned = stats.rows_scanned;
    reply->pages_fetched = stats.pages_fetched;
    reply->pages_read = stats.pages_read;
  }

  std::vector<uint8_t> tail;
  {
    ScopedSpan span(spans, "protocol.encode", request_id);
    tail = EncodeTail(q.kind, *reply, *neighbors);
  }
  {
    ScopedSpan span(spans, "crc32c.frame", request_id);
    volatile uint32_t crc = FrameCrc(head, tail.data(), tail.size());
    (void)crc;
  }
  backend->cache->Insert(type, epoch, body, body_len, 0, tail.data(),
                         tail.size());
  {
    std::lock_guard<std::mutex> lock(backend->seen_mu);
    backend->seen.insert(std::move(key));
  }
  return tail.size();
}

}  // namespace servebench
