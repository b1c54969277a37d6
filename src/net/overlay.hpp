// The P2P overlay: N peers with fixed-degree neighbour sets, Poisson joins,
// Pareto session times, offline gaps and final departures.
//
// The overlay drives all churn through the discrete-event simulator and
// notifies registered observers of joins, leaves and neighbour replacements
// so that availability estimators (net/probing) and metrics collectors can
// react without the overlay knowing about them.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "net/churn.hpp"
#include "net/ids.hpp"
#include "net/link_model.hpp"
#include "net/live_ids.hpp"
#include "net/soa.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace p2panon::net {

struct OverlayConfig {
  std::size_t node_count = 40;      ///< N (paper §3: 40)
  std::size_t degree = 5;           ///< d, |D(s)| (paper §3: 5)
  double malicious_fraction = 0.0;  ///< f
  /// Availability attack (paper §5 threat 1): malicious nodes keep their
  /// sessions alive permanently to attract re-formed paths.
  bool malicious_always_online = false;
  /// Cost C_p assigned to every node (constant-cost model of Prop. 2).
  double participation_cost = 10.0;
  ChurnConfig churn;
  LinkModelConfig link;
};

class Overlay {
 public:
  /// Fires on every join (online=true) and leave (online=false).
  using ChurnObserver = std::function<void(NodeId node, bool online, sim::Time when)>;
  /// Fires when node `s` replaces departed neighbour `old_neighbor` with
  /// `fresh` in D(s).
  using NeighborObserver =
      std::function<void(NodeId s, NodeId old_neighbor, NodeId fresh, sim::Time when)>;

  Overlay(const OverlayConfig& cfg, sim::Simulator& simulator, sim::rng::Stream stream);

  Overlay(const Overlay&) = delete;
  Overlay& operator=(const Overlay&) = delete;

  /// Schedule the initial Poisson join process. Call once before running the
  /// simulator.
  void start();

  [[nodiscard]] std::size_t size() const noexcept { return state_.size(); }

  [[nodiscard]] bool is_online(NodeId id) const { return state_.online.at(id) != 0; }

  /// What the rest of the overlay *believes* about the node's liveness: a
  /// silently-crashed node still appears online (nobody was told), while a
  /// graceful leave is announced and visible immediately. Protocol code
  /// (candidate selection, routing) must use this instead of is_online();
  /// only physical message delivery and probes may consult ground truth.
  [[nodiscard]] bool appears_online(NodeId id) const { return state_.appears_online(id); }
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId id) const {
    return state_.neighbors_of(id);
  }

  /// The columnar node state, for shard-local views and streaming sweeps.
  [[nodiscard]] const NodeStateSoA& state() const noexcept { return state_; }
  [[nodiscard]] const LinkModel& links() const noexcept { return links_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }

  /// Ground-truth availability of a node at the current simulation time.
  [[nodiscard]] double true_availability(NodeId id) const {
    return state_.tracker.at(id).availability(sim_.now());
  }

  /// All currently-online node ids, ascending.
  [[nodiscard]] std::vector<NodeId> online_nodes() const;

  /// Online members of D(s).
  [[nodiscard]] std::vector<NodeId> online_neighbors(NodeId id) const;

  /// Ids of all good (non-malicious) nodes.
  [[nodiscard]] std::vector<NodeId> good_nodes() const;
  [[nodiscard]] std::vector<NodeId> malicious_nodes() const;

  void add_churn_observer(ChurnObserver obs) { churn_observers_.push_back(std::move(obs)); }
  void add_neighbor_observer(NeighborObserver obs) {
    neighbor_observers_.push_back(std::move(obs));
  }

  /// Force a node online immediately (used by harness to guarantee an
  /// initiator/responder pair can communicate). No-op if already online.
  void force_online(NodeId id);

  /// Force a node gracefully offline immediately (test/harness hook): the
  /// leave is announced to churn observers exactly like a natural one, but
  /// no rejoin is scheduled and no churn-stream variates are drawn. No-op
  /// if already offline.
  void force_offline(NodeId id);

  /// Silent crash (fault injection): the node goes down *without* any
  /// churn-observer notification — the rest of the system keeps believing
  /// it is online until timeouts prove otherwise. Ground-truth availability
  /// tracking still records the downtime (that is what time-to-detect is
  /// measured against). Returns false (no-op) if the node is not up.
  bool crash(NodeId id);

  /// Recover a crashed node: it rejoins like any other join (observers see
  /// it) and a fresh session is scheduled. No-op if the node is not
  /// currently crashed.
  void recover(NodeId id);

  /// Number of join and leave events processed so far.
  [[nodiscard]] std::uint64_t churn_events() const noexcept { return churn_event_count_; }

  [[nodiscard]] const OverlayConfig& config() const noexcept { return cfg_; }

 private:
  void do_join(NodeId id);
  void do_leave(NodeId id, std::uint64_t leave_epoch);
  void schedule_leave(NodeId id);
  void set_departed(NodeId id, bool departed);
  void replace_departed_neighbor(NodeId departed);
  [[nodiscard]] NodeId pick_replacement(NodeId owner, NodeId departed);
  void notify_churn(NodeId id, bool online);

  OverlayConfig cfg_;
  sim::Simulator& sim_;
  sim::rng::Stream stream_;
  ChurnProcess churn_;
  LinkModel links_;
  NodeStateSoA state_;
  /// Reverse neighbour index: owners_[v] holds every s with v in D(s), in
  /// no particular order. Written only where a row entry changes.
  std::vector<std::vector<NodeId>> owners_;
  /// Order statistics over the ids with departed == 0.
  LiveIds live_;
  std::vector<NodeId> excluded_;  ///< pick_replacement scratch
  std::vector<ChurnObserver> churn_observers_;
  std::vector<NeighborObserver> neighbor_observers_;
  std::uint64_t churn_event_count_ = 0;
};

}  // namespace p2panon::net
