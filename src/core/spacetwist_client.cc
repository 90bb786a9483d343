#include "core/spacetwist_client.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <queue>

#include "common/logging.h"
#include "core/anchor.h"
#include "core/params.h"

namespace spacetwist::core {

namespace {

/// Max-heap of the k best candidates seen so far (W_k in Algorithm 1),
/// initialized with k dummies at infinite distance so gamma starts at
/// infinity (demand space = whole domain).
class BestK {
 public:
  explicit BestK(size_t k) {
    for (size_t i = 0; i < k; ++i) {
      heap_.push(rtree::Neighbor{rtree::DataPoint{},
                                 std::numeric_limits<double>::infinity()});
    }
  }

  double gamma() const { return heap_.top().distance; }

  void Offer(const rtree::Neighbor& n) {
    if (n.distance < gamma()) {
      heap_.pop();
      heap_.push(n);
    }
  }

  /// Extracts the real (non-dummy) results, ascending by distance.
  std::vector<rtree::Neighbor> Extract() {
    std::vector<rtree::Neighbor> out;
    while (!heap_.empty()) {
      if (std::isfinite(heap_.top().distance)) out.push_back(heap_.top());
      heap_.pop();
    }
    std::reverse(out.begin(), out.end());
    return out;
  }

 private:
  struct FartherFirst {
    bool operator()(const rtree::Neighbor& a, const rtree::Neighbor& b) const {
      return a.distance < b.distance;
    }
  };
  std::priority_queue<rtree::Neighbor, std::vector<rtree::Neighbor>,
                      FartherFirst>
      heap_;
};

}  // namespace

Result<QueryOutcome> RunTerminationLoop(const geom::Point& q,
                                        const geom::Point& anchor, size_t k,
                                        size_t beta,
                                        net::PacketTransport* transport) {
  SPACETWIST_CHECK(transport != nullptr);
  QueryOutcome outcome;
  outcome.query = q;
  outcome.anchor = anchor;
  outcome.k = k;
  outcome.beta = beta;

  BestK best(k);
  const double anchor_dist = geom::Distance(q, anchor);
  double tau = 0.0;

  // Algorithm 1: pull packets until gamma + dist(q, q') <= tau.
  while (best.gamma() + anchor_dist > tau) {
    Result<net::Packet> packet = transport->NextPacket();
    if (!packet.ok()) {
      if (packet.status().IsExhausted()) {
        // The server has reported every (non-pruned) point; the current
        // W_k is final even though the cover test never fired.
        outcome.stream_exhausted = true;
        break;
      }
      return packet.status();
    }
    ++outcome.packets;
    for (const rtree::DataPoint& p : packet->points) {
      tau = geom::Distance(anchor, p.point);  // INN order: non-decreasing
      outcome.retrieved.push_back(p);
      best.Offer(rtree::Neighbor{p, geom::Distance(q, p.point)});
    }
  }

  outcome.tau = tau;
  outcome.neighbors = best.Extract();
  outcome.gamma = outcome.neighbors.empty()
                      ? std::numeric_limits<double>::infinity()
                      : outcome.neighbors.back().distance;
  return outcome;
}

SpaceTwistClient::SpaceTwistClient(server::LbsServer* server)
    : server_(server) {
  SPACETWIST_CHECK(server != nullptr);
}

Result<QueryOutcome> SpaceTwistClient::Query(const geom::Point& q,
                                             const geom::Point& anchor,
                                             const QueryParams& params) {
  SPACETWIST_RETURN_NOT_OK(
      ValidateQueryParameters(anchor, params.epsilon, params.k));

  // The server only ever learns the anchor, epsilon, and k.
  std::unique_ptr<server::GranularInnStream> stream =
      server_->OpenGranularSession(anchor, params.epsilon, params.k,
                                   params.granular);
  net::PacketChannel channel(stream.get(), params.packet);
  return RunTerminationLoop(q, anchor, params.k, params.packet.Capacity(),
                            &channel);
}

Result<QueryOutcome> SpaceTwistClient::Query(const geom::Point& q,
                                             const QueryParams& params,
                                             Rng* rng) {
  const geom::Point anchor =
      GenerateAnchor(q, params.anchor_distance, server_->domain(), rng);
  return Query(q, anchor, params);
}

}  // namespace spacetwist::core
