#include "core/crowds.hpp"

#include <cassert>

namespace p2panon::core {

bool CrowdsSession::path_alive(const net::Overlay& overlay) const {
  if (!have_path_) return false;
  for (std::size_t i = 1; i + 1 < current_.nodes.size(); ++i) {
    const net::NodeId id = current_.nodes[i];
    if (overlay.state().online[id] == 0 || overlay.state().departed[id] != 0) return false;
  }
  return true;
}

const BuiltPath& CrowdsSession::run_connection(const PathBuilder& builder,
                                               HistoryStore& history,
                                               const StrategyAssignment& strategies,
                                               PayoffLedger& ledger,
                                               const net::Overlay& overlay,
                                               sim::rng::Stream& stream) {
  ++connections_;
  if (!path_alive(overlay)) {
    // (Re-)form the static path.
    auto form_stream = stream.child("form", formations_);
    current_ = builder.build(pair_, connections_, initiator_, responder_, contract_,
                             strategies, form_stream);
    have_path_ = true;
    ++formations_;
  }

  // Every connection over the (possibly reused) path costs each forwarder a
  // transmission and records history, exactly as in per-connection routing.
  history.record_path(pair_, connections_, current_.nodes);
  for (std::size_t i = 1; i + 1 < current_.nodes.size(); ++i) {
    ledger.charge_participation(overlay, current_.nodes[i]);
    ledger.charge_transmission(overlay, current_.nodes[i], current_.nodes[i + 1]);
    insert_sorted(forwarder_set_, current_.nodes[i]);
  }
  total_path_length_ += current_.forwarder_count();
  return current_;
}

double CrowdsSession::average_path_length() const noexcept {
  return connections_ > 0
             ? static_cast<double>(total_path_length_) / static_cast<double>(connections_)
             : 0.0;
}

double CrowdsSession::path_quality() const noexcept {
  return forwarder_set_.empty()
             ? 0.0
             : average_path_length() / static_cast<double>(forwarder_set_.size());
}

}  // namespace p2panon::core
