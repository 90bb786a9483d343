#include "shard/scatter_gather.h"

#include <limits>
#include <memory>
#include <utility>

#include "common/logging.h"

namespace spacetwist::shard {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

ScatterGatherStream::ScatterGatherStream(
    std::vector<ShardTarget> targets, const geom::Point& anchor,
    double epsilon, size_t k, const server::GranularOptions& options,
    RetireFn on_retire)
    : anchor_(anchor), epsilon_(epsilon), k_(k),
      on_retire_(std::move(on_retire)),
      // Same CellFilter (and hence the same lambda, Lemma 2) as the
      // single-server streams.
      filter_(anchor, epsilon, k, options.lazy_eviction) {
  SPACETWIST_CHECK(!targets.empty());
  SPACETWIST_CHECK(epsilon >= 0.0);
  SPACETWIST_CHECK(k >= 1);
  shards_.reserve(targets.size());
  for (ShardTarget& t : targets) {
    SPACETWIST_CHECK(t.server != nullptr);
    SPACETWIST_CHECK(t.partition != nullptr);
    ShardState s;
    s.target = t;
    // A shard with no points has nothing to deliver; retiring it up front
    // keeps it out of the merge and out of the fan-out count.
    s.exhausted = !t.partition->HasPoints();
    shards_.push_back(std::move(s));
  }
  telemetry::MetricRegistry* r =
      telemetry::MetricRegistry::OrDefault(options.registry);
  opens_metric_ = r->GetCounter("shard.router.opens");
  pulls_metric_ = r->GetCounter("shard.router.shard_pulls");
  merge_pops_metric_ = r->GetCounter("shard.router.merge_pops");
  points_reported_metric_ = r->GetCounter("shard.router.points_reported");
}

ScatterGatherStream::~ScatterGatherStream() {
  if (on_retire_ != nullptr) on_retire_(anchor_, stats_);
}

double ScatterGatherStream::LowerBound(const ShardState& s) const {
  if (s.exhausted) return kInf;
  if (s.stream == nullptr) {
    return geom::MinDist(anchor_, s.target.partition->bounds);
  }
  if (!s.buffer.empty()) return s.buffer.front().distance;
  return s.floor;
}

Status ScatterGatherStream::Fill(ShardState* s, size_t shard_index,
                                 size_t max_points) {
  if (s->stream == nullptr) {
    telemetry::Trace::Span open =
        telemetry::Trace::SpanOn(trace_, "router.shard.open");
    open.Note("shard", shard_index);
    // Shard streams pre-filter with the query's own cell cap; the router
    // still applies the global one — see the class comment.
    server::GranularOptions options;
    options.registry = s->target.registry;
    s->stream =
        s->target.server->OpenInnSource(anchor_, epsilon_, k_, options);
    ++stats_.fanout;
    opens_metric_->Add();
  }
  telemetry::Trace::Span pull =
      telemetry::Trace::SpanOn(trace_, "router.shard.pull");
  pull.Note("shard", shard_index);
  pull.Note("seq", s->next_seq);
  // The shard stream's page fetches nest under this span, which notes the
  // work the pull cost (notes on an untraced span are no-ops).
  server::InnSource* stream = s->stream.get();
  const uint64_t pops_before = stream->heap_pops();
  const uint64_t reads_before = stream->node_reads();
  pulled_.clear();
  stream->set_trace(trace_);
  const Status status = stream->NextBatch(max_points, &pulled_);
  stream->set_trace(nullptr);
  pull.Note("heap_pops", stream->heap_pops() - pops_before);
  pull.Note("node_reads", stream->node_reads() - reads_before);
  pull.Note("points", pulled_.size());
  ++s->next_seq;
  ++stats_.shard_pulls;
  pulls_metric_->Add();
  if (s->target.pulls != nullptr) s->target.pulls->Add();
  SPACETWIST_RETURN_NOT_OK(status);
  for (const rtree::DataPoint& p : pulled_) {
    rtree::Neighbor n;
    n.point = p;
    n.distance = geom::Distance(anchor_, p.point);
    s->floor = n.distance;  // ascending within the shard stream
    s->buffer.push_back(n);
  }
  if (pulled_.size() < max_points) {
    pull.Note("exhausted", 1);
    s->exhausted = true;
    s->stream.reset();
  }
  return Status::OK();
}

bool ScatterGatherStream::PassesCellFilter(const rtree::Neighbor& n) {
  filter_.EvictUpTo(n.distance);
  return filter_.AdmitPoint(n.point.point);
}

Result<rtree::DataPoint> ScatterGatherStream::Next() {
  single_.clear();
  SPACETWIST_RETURN_NOT_OK(NextBatch(1, &single_));
  if (single_.empty()) {
    return Status::Exhausted("scatter-gather stream is dry");
  }
  return single_[0];
}

Status ScatterGatherStream::NextBatch(size_t max_points,
                                      std::vector<rtree::DataPoint>* out) {
  // Router counters are flushed once per call, not per merge step.
  const uint64_t pops_before = merge_pops_;
  const size_t out_before = out->size();
  Status status;
  while (out->size() < max_points) {
    // The buffered head with the globally smallest (distance, id) — the
    // same total order the single-server heap pops points in.
    size_t best = shards_.size();
    for (size_t i = 0; i < shards_.size(); ++i) {
      const ShardState& s = shards_[i];
      if (s.buffer.empty()) continue;
      if (best == shards_.size()) {
        best = i;
        continue;
      }
      const rtree::Neighbor& a = s.buffer.front();
      const rtree::Neighbor& b = shards_[best].buffer.front();
      if (a.distance != b.distance ? a.distance < b.distance
                                   : a.point.id < b.point.id) {
        best = i;
      }
    }

    // Any headless shard whose lower bound does not exceed the head's
    // distance could still own the global minimum (equal distance with a
    // smaller id included), so it must be filled before the head can be
    // merged out. Filling the smallest lower bound first keeps shard opens
    // in mindist order — the pruning-tightness invariant.
    size_t fill = shards_.size();
    double fill_lb = kInf;
    for (size_t i = 0; i < shards_.size(); ++i) {
      const ShardState& s = shards_[i];
      if (s.exhausted || !s.buffer.empty()) continue;
      const double lb = LowerBound(s);
      if (lb < fill_lb) {
        fill_lb = lb;
        fill = i;
      }
    }
    if (fill != shards_.size() &&
        (best == shards_.size() ||
         fill_lb <= shards_[best].buffer.front().distance)) {
      status = Fill(&shards_[fill], fill, max_points - out->size());
      if (!status.ok()) break;
      continue;
    }

    if (best == shards_.size()) break;  // every reachable shard is dry

    const rtree::Neighbor head = shards_[best].buffer.front();
    shards_[best].buffer.pop_front();
    ++merge_pops_;
    if (!PassesCellFilter(head)) continue;
    last_report_distance_ = head.distance;
    out->push_back(head.point);
  }
  merge_pops_metric_->Add(merge_pops_ - pops_before);
  points_reported_metric_->Add(
      static_cast<uint64_t>(out->size() - out_before));
  return status;
}

}  // namespace spacetwist::shard
