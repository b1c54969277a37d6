// Game-theoretic layer (paper §2.4).
//
// Three pieces:
//
//  1. Closed-form condition checkers for the paper's propositions:
//     Prop. 2 — P_f > C_p*N/(L*k) + C_t induces participation;
//     Prop. 3 — P_f > C_p + C_t makes forwarding a dominant strategy for
//     the forwarding stage.
//
//  2. The finite multi-stage *path-formation game* of Utility Model II:
//     path formation is an L-stage game in which the current holder picks a
//     successor; the subgame-perfect Nash equilibrium is computed by
//     backward induction over (node, stages-left) states, and subgame
//     perfection is verifiable state by state.
//
//  3. A generic normal-form game (small player/action counts) with pure-Nash
//     enumeration, best-response dynamics and dominant-strategy checks, plus
//     a constructor for the paper's forwarding *meta-game* in which every
//     peer picks {Abstain, ForwardRandom, ForwardNonRandom}.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "net/ids.hpp"

namespace p2panon::core::game {

// ---------------------------------------------------------------------------
// Propositions 2 and 3.
// ---------------------------------------------------------------------------

/// Prop. 2 threshold: with constant costs, P_f above this induces peers to
/// participate in forwarding. N = system size, L = average path length,
/// k = connections per set.
[[nodiscard]] double prop2_participation_threshold(double c_p, double c_t, std::size_t n,
                                                   double avg_path_length,
                                                   std::size_t connections) noexcept;

[[nodiscard]] bool prop2_induces_participation(double p_f, double c_p, double c_t, std::size_t n,
                                               double avg_path_length,
                                               std::size_t connections) noexcept;

/// Prop. 3: forwarding is a dominant strategy for the forwarding stage when
/// P_f > C_p + C_t.
[[nodiscard]] bool prop3_forwarding_dominant(double p_f, double c_p, double c_t) noexcept;

// ---------------------------------------------------------------------------
// L-stage path-formation game, solved by backward induction.
// ---------------------------------------------------------------------------

/// Abstract description of the stage game: successor candidates per node,
/// edge quality, the contract constants and per-edge cost. Kept independent
/// of the overlay types so equilibria can be studied on hand-built graphs.
struct PathGameSpec {
  std::size_t node_count = 0;
  net::NodeId responder = net::kInvalidNode;
  /// Successor candidates of a node (excluding the responder; delivering to
  /// the responder is always additionally available).
  std::function<std::vector<net::NodeId>(net::NodeId)> candidates;
  /// q(i, j) for a forwarding edge; the delivery edge (i -> responder) has
  /// quality 1 by definition.
  std::function<double(net::NodeId, net::NodeId)> edge_quality;
  double forwarding_benefit = 0.0;  ///< P_f
  double routing_benefit = 0.0;     ///< P_r
  /// Cost incurred by `i` when forwarding to `j` (C_p + C_t(i, j)).
  std::function<double(net::NodeId, net::NodeId)> cost;
};

/// The mover's prescribed action in a subgame and the value (onward path
/// quality from this state under equilibrium play).
struct StageDecision {
  net::NodeId next = net::kInvalidNode;  ///< responder means deliver
  double onward_quality = 0.0;           ///< q of the equilibrium onward path
  double utility = 0.0;                  ///< mover's Model-II utility of the action
};

class BackwardInductionSolver {
 public:
  /// Solve the game with at most `stages` forwarding moves; at stage 0 the
  /// holder must deliver to the responder.
  BackwardInductionSolver(const PathGameSpec& spec, std::uint32_t stages);

  /// Equilibrium decision for `holder` with `stages_left` moves remaining.
  [[nodiscard]] const StageDecision& decision(net::NodeId holder,
                                              std::uint32_t stages_left) const;

  /// Verify subgame perfection: in every (holder, stages-left) subgame, the
  /// prescribed action maximises the mover's Model-II utility given the
  /// equilibrium continuation. True by construction; the explicit check
  /// exists so tests (and sceptics) can re-derive it.
  [[nodiscard]] bool verify_subgame_perfection() const;

  /// Path induced by equilibrium play from `start` (start, ..., responder).
  [[nodiscard]] std::vector<net::NodeId> equilibrium_path(net::NodeId start) const;

  [[nodiscard]] std::uint32_t stages() const noexcept { return stages_; }

 private:
  [[nodiscard]] StageDecision compute_decision(net::NodeId holder,
                                               std::uint32_t stages_left) const;

  const PathGameSpec& spec_;
  std::uint32_t stages_;
  /// table_[stages_left][node]
  std::vector<std::vector<StageDecision>> table_;
};

// ---------------------------------------------------------------------------
// Generic normal-form game.
// ---------------------------------------------------------------------------

class NormalFormGame {
 public:
  /// A pure strategy profile: one action index per player.
  using Profile = std::vector<std::size_t>;
  using PayoffFn = std::function<double(std::size_t player, const Profile&)>;

  NormalFormGame(std::vector<std::size_t> action_counts, PayoffFn payoff);

  [[nodiscard]] std::size_t player_count() const noexcept { return action_counts_.size(); }

  [[nodiscard]] double payoff(std::size_t player, const Profile& profile) const;

  /// Is `profile[player]` a best response to the others' actions?
  [[nodiscard]] bool is_best_response(std::size_t player, const Profile& profile) const;

  [[nodiscard]] bool is_nash(const Profile& profile) const;

  /// All pure Nash equilibria by exhaustive enumeration. The profile space
  /// must not exceed `max_profiles` (guards accidental blow-ups).
  [[nodiscard]] std::vector<Profile> pure_nash_equilibria(
      std::size_t max_profiles = 1u << 20) const;

  /// Iterated best-response dynamics from `start`; returns the fixed point
  /// (a Nash equilibrium) or nullopt if no convergence in `max_rounds`.
  [[nodiscard]] std::optional<Profile> best_response_dynamics(Profile start,
                                                              std::size_t max_rounds = 100) const;

  /// Is `action` (weakly) dominant for `player`: a best response against
  /// every combination of the other players' actions?
  [[nodiscard]] bool is_dominant_action(std::size_t player, std::size_t action,
                                        std::size_t max_profiles = 1u << 20) const;

 private:
  std::vector<std::size_t> action_counts_;
  PayoffFn payoff_;
};

// ---------------------------------------------------------------------------
// The forwarding meta-game.
// ---------------------------------------------------------------------------

/// Player actions in the meta-game (paper §2.4: at each stage a node may not
/// participate, forward-and-route randomly, or forward-and-route
/// non-randomly).
enum class MetaAction : std::size_t { kAbstain = 0, kRandom = 1, kNonRandom = 2 };

/// Analytic payoff model for the meta-game. Simplifications (documented in
/// DESIGN.md): total forwarding work L*k splits evenly over participants;
/// the forwarder set size grows linearly with the random-routing fraction
/// from L (all non-random) toward min(#participants, L + expansion);
/// membership in the paid forwarder set is proportional to a selection
/// weight that favours non-random routers (selectivity bonus), normalised so
/// expected membership totals ||pi||.
struct MetaGameParams {
  std::size_t players = 5;       ///< peers in the model
  double total_nodes = 40.0;     ///< N
  double avg_path_length = 4.0;  ///< L
  double connections = 20.0;     ///< k
  double p_f = 75.0;
  double p_r = 150.0;
  double c_p = 10.0;
  double c_t = 1.0;
  double selectivity_bonus = 1.0;  ///< extra selection weight for non-random
};

[[nodiscard]] NormalFormGame make_forwarding_metagame(const MetaGameParams& params);

}  // namespace p2panon::core::game
