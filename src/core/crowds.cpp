#include "core/crowds.hpp"

namespace p2panon::core {

bool CrowdsSession::path_alive(const net::Overlay& overlay) const {
  if (formations_ == 0) return false;
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
  if (!path_alive(overlay)) {
    // (Re-)form the static path.
    auto form_stream = stream.child("form", formations_);
    current_ = builder.build(set_.pair(), set_.connections_run() + 1, set_.initiator(),
                             set_.responder(), set_.contract(), strategies, form_stream);
    ++formations_;
  }
  // Every connection over the (possibly reused) path costs each forwarder a
  // transmission and records history, exactly as in per-connection routing.
  return set_.adopt_connection(current_, history, ledger, overlay);
}

}  // namespace p2panon::core
