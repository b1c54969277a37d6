#include "net/overlay.hpp"

#include <algorithm>
#include <cassert>

namespace p2panon::net {

Overlay::Overlay(const OverlayConfig& cfg, sim::Simulator& simulator, sim::rng::Stream stream)
    : cfg_(cfg),
      sim_(simulator),
      stream_(stream),
      churn_(cfg.churn, stream.child("churn")),
      links_(cfg.link, stream.child("links").next_u64()) {
  assert(cfg.node_count >= 2);
  assert(cfg.degree >= 1 && cfg.degree < cfg.node_count);
  assert(cfg.malicious_fraction >= 0.0 && cfg.malicious_fraction <= 1.0);

  state_.resize(cfg.node_count, cfg.degree);
  assign_node_kinds(state_, cfg.malicious_fraction, cfg.participation_cost,
                    stream.child("malicious"));

  // Each node randomly selects d distinct neighbours (paper §3).
  sample_neighbors(state_, stream.child("neighbors"));
  owners_.resize(cfg.node_count);
  for (NodeId s = 0; s < cfg.node_count; ++s) {
    for (NodeId nb : state_.neighbors_of(s)) owners_[nb].push_back(s);
  }
  live_ = LiveIds(state_.departed);
}

void Overlay::start() {
  // Poisson join process: nodes enter the system one by one in a random
  // order, with exponential inter-arrival gaps.
  std::vector<NodeId> order(state_.size());
  for (NodeId id = 0; id < state_.size(); ++id) order[id] = id;
  auto order_stream = stream_.child("join-order");
  order_stream.shuffle(order);

  sim::Time at = 0.0;
  for (NodeId id : order) {
    if (cfg_.malicious_always_online && state_.is_malicious(id)) {
      // Availability attackers are present from the very start and stay.
      sim_.schedule_at(0.0, [this, id] { do_join(id); });
      continue;
    }
    sim_.schedule_at(at, [this, id] { do_join(id); });
    at += churn_.next_join_gap();
  }
}

void Overlay::do_join(NodeId id) {
  if (state_.departed[id] != 0 || state_.online[id] != 0 || state_.crashed[id] != 0) return;
  state_.online[id] = 1;
  state_.tracker[id].on_join(sim_.now());
  ++churn_event_count_;
  notify_churn(id, true);
  if (!(cfg_.malicious_always_online && state_.is_malicious(id))) {
    schedule_leave(id);
  }
}

void Overlay::schedule_leave(NodeId id) {
  const sim::Time session = churn_.session_length();
  // Capture the session epoch: if the session ends abnormally (crash,
  // forced offline) before this fires, the epoch moves on and the stale
  // leave becomes a no-op instead of truncating a later session.
  const std::uint64_t epoch = state_.leave_epoch.at(id);
  sim_.schedule_in(session, [this, id, epoch] { do_leave(id, epoch); });
}

void Overlay::do_leave(NodeId id, std::uint64_t leave_epoch) {
  if (state_.online[id] == 0 || state_.leave_epoch[id] != leave_epoch) return;
  state_.online[id] = 0;
  state_.tracker[id].on_leave(sim_.now());
  ++churn_event_count_;
  notify_churn(id, false);

  if (churn_.is_final_departure()) {
    set_departed(id, true);
    replace_departed_neighbor(id);
    return;
  }
  const sim::Time gap = churn_.offline_gap();
  sim_.schedule_in(gap, [this, id] { do_join(id); });
}

void Overlay::force_online(NodeId id) {
  if (state_.online.at(id) != 0) return;
  set_departed(id, false);
  if (state_.crashed[id] != 0) {
    state_.crashed[id] = 0;
    ++state_.leave_epoch[id];
  }
  state_.online[id] = 1;
  state_.tracker[id].on_join(sim_.now());
  ++churn_event_count_;
  notify_churn(id, true);
  schedule_leave(id);
}

void Overlay::force_offline(NodeId id) {
  if (state_.online.at(id) == 0) return;
  state_.online[id] = 0;
  ++state_.leave_epoch[id];  // the pending natural leave belongs to a dead session
  state_.tracker[id].on_leave(sim_.now());
  ++churn_event_count_;
  notify_churn(id, false);
}

bool Overlay::crash(NodeId id) {
  if (state_.online.at(id) == 0 || state_.departed[id] != 0) return false;
  state_.online[id] = 0;
  state_.crashed[id] = 1;
  ++state_.leave_epoch[id];  // invalidate the session's pending graceful leave
  // Ground truth sees the downtime (availability, last_leave for the
  // time-to-detect metric) — but observers are NOT notified: that silence
  // is the entire point of a silent crash.
  state_.tracker[id].on_leave(sim_.now());
  ++churn_event_count_;
  return true;
}

void Overlay::recover(NodeId id) {
  if (state_.crashed.at(id) == 0) return;
  state_.crashed[id] = 0;
  ++state_.leave_epoch[id];
  if (state_.departed[id] != 0 || state_.online[id] != 0) return;
  state_.online[id] = 1;
  state_.tracker[id].on_join(sim_.now());
  ++churn_event_count_;
  notify_churn(id, true);  // a recovery is an ordinary, visible (re)join
  schedule_leave(id);
}

void Overlay::set_departed(NodeId id, bool departed) {
  state_.departed[id] = departed ? 1 : 0;
  live_.set(id, !departed);
}

void Overlay::replace_departed_neighbor(NodeId departed) {
  // Visit the owners in ascending id order, the order of a scan over all
  // rows, so observers (the probing estimator's forget) see the same
  // sequence. An owner left without a candidate keeps the stale entry and
  // stays indexed under `departed`.
  std::vector<NodeId> owners = std::move(owners_[departed]);
  owners_[departed].clear();
  std::sort(owners.begin(), owners.end());
  for (NodeId s : owners) {
    const auto row = state_.neighbors_of(s);
    const auto slot = std::find(row.begin(), row.end(), departed);
    assert(slot != row.end());
    const NodeId fresh = pick_replacement(s, departed);
    if (fresh == kInvalidNode) {
      owners_[departed].push_back(s);
      continue;
    }
    *slot = fresh;
    owners_[fresh].push_back(s);
    for (const auto& obs : neighbor_observers_) obs(s, departed, fresh, sim_.now());
  }
}

NodeId Overlay::pick_replacement(NodeId owner, NodeId departed) {
  // Candidates: any non-departed node that is not the owner, not the departed
  // neighbour, and not already in D(owner). The draw indexes their ascending
  // list, which the order-statistic select reaches without building it.
  const auto own_row = state_.neighbors_of(owner);
  excluded_.assign(own_row.begin(), own_row.end());
  excluded_.push_back(owner);
  excluded_.push_back(departed);
  const std::size_t count = live_.count_outside(excluded_);
  if (count == 0) return kInvalidNode;
  auto pick_stream = stream_.child("replacement", (static_cast<std::uint64_t>(owner) << 32) ^
                                                      churn_event_count_);
  return live_.select_outside(pick_stream.below(count), excluded_);
}

void Overlay::notify_churn(NodeId id, bool online) {
  for (const auto& obs : churn_observers_) obs(id, online, sim_.now());
}

std::vector<NodeId> Overlay::online_nodes() const {
  std::vector<NodeId> out;
  out.reserve(state_.size());
  for (NodeId id = 0; id < state_.size(); ++id) {
    if (state_.online[id] != 0) out.push_back(id);
  }
  return out;
}

std::vector<NodeId> Overlay::online_neighbors(NodeId id) const {
  std::vector<NodeId> out;
  for (NodeId nb : state_.neighbors_of(id)) {
    if (state_.online.at(nb) != 0) out.push_back(nb);
  }
  return out;
}

std::vector<NodeId> Overlay::good_nodes() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < state_.size(); ++id) {
    if (state_.is_good(id)) out.push_back(id);
  }
  return out;
}

std::vector<NodeId> Overlay::malicious_nodes() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < state_.size(); ++id) {
    if (state_.is_malicious(id)) out.push_back(id);
  }
  return out;
}

}  // namespace p2panon::net
