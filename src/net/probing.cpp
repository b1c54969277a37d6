#include "net/probing.hpp"

namespace p2panon::net {

ProbingEstimator::ProbingEstimator(Overlay& overlay, const ProbingConfig& cfg,
                                   sim::rng::Stream stream)
    : overlay_(overlay),
      cfg_(cfg),
      partition_(overlay.size(), 1),
      estimator_(overlay.state(), partition_, cfg.period, stream),
      tick_lane_(overlay.simulator().add_lane()) {
  // "When a peer first joins the system, it initializes the session time of
  // each of its neighbors to 0": slots start unobserved, so a join only
  // (re)starts the probe loop, which suspends itself while offline.
  overlay_.add_churn_observer([this](NodeId node, bool online, sim::Time) {
    if (online && estimator_.wake(node)) schedule_tick(node);
  });
  overlay_.add_neighbor_observer([this](NodeId s, NodeId, NodeId fresh, sim::Time) {
    estimator_.forget(s, estimator_.slot_of(s, fresh));
  });
}

void ProbingEstimator::schedule_tick(NodeId s) {
  overlay_.simulator().schedule_in(tick_lane_, cfg_.period, [this, s] {
    // What a probe *observes*: ground truth unless a fault oracle is
    // installed (probe false negatives). A neighbour observed
    // dead simply fails to accumulate session time this period.
    const bool online =
        oracle_ ? estimator_.tick_with(s, [&](NodeId u) { return oracle_(s, u); })
                : estimator_.tick_with(s, [&](NodeId u) { return overlay_.is_online(u); });
    if (online) schedule_tick(s);
  });
}

}  // namespace p2panon::net
