#include "net/soa.hpp"

namespace p2panon::net {

void sample_neighbors(NodeStateSoA& state, sim::rng::Stream stream) {
  const std::size_t n = state.size();
  for (NodeId id = 0; id < n; ++id) {
    const std::vector<std::size_t> picks = stream.sample_indices(n - 1, state.degree);
    const std::span<NodeId> row = state.neighbors_of(id);
    for (std::size_t slot = 0; slot < picks.size(); ++slot) {
      const std::size_t p = picks[slot];
      row[slot] = static_cast<NodeId>(p >= id ? p + 1 : p);
    }
  }
}

void assign_node_kinds(NodeStateSoA& state, double malicious_fraction, double participation_cost,
                       sim::rng::Stream stream) {
  const std::size_t n = state.size();
  state.participation_cost.assign(n, participation_cost);
  const auto mal_count =
      static_cast<std::size_t>(malicious_fraction * static_cast<double>(n) + 0.5);
  for (std::size_t idx : stream.sample_indices(n, mal_count)) {
    state.kind[idx] = NodeKind::kMalicious;
  }
}

}  // namespace p2panon::net
