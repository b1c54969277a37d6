#include "harness/scenario.hpp"

#include <algorithm>
#include <any>
#include <cassert>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/edge_quality.hpp"
#include "core/path.hpp"
#include "core/suspicion.hpp"
#include "harness/paper_sharded.hpp"
#include "metrics/anonymity.hpp"
#include "payment/settlement.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "transport/sim_transport.hpp"

namespace p2panon::harness {

ScenarioConfig paper_default_config(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  return cfg;
}

namespace {

/// "ScenarioConfig::<field> = <value> must be <rule>".
template <class T>
std::string out_of_range(std::string_view field, T value, std::string_view rule) {
  std::ostringstream msg;
  msg << "ScenarioConfig::" << field << " = " << value << " must be " << rule;
  return msg.str();
}

/// The first Runners::kSerialOnly leaf of `c` that differs from
/// ScenarioConfig{}, or an empty name. `defaults` holds the default of every
/// leaf in table order, so the walk over `c` meets each at its own index.
std::string_view serial_only_knob(const ScenarioConfig& c) {
  static const std::vector<std::any> defaults = [] {
    const ScenarioConfig d;
    std::vector<std::any> out;
    for_each_config_field(d, [&out](std::string_view, const auto& leaf, Runners) {
      out.emplace_back(leaf);
    });
    return out;
  }();
  std::string_view knob;
  std::size_t i = 0;
  for_each_config_field(c, [&](std::string_view name, const auto& leaf, Runners runners) {
    using T = std::remove_cvref_t<decltype(leaf)>;
    const T& dflt = std::any_cast<const T&>(defaults[i++]);
    if (knob.empty() && runners == Runners::kSerialOnly && leaf != dflt) knob = name;
  });
  return knob;
}

}  // namespace

std::string ScenarioConfig::validate(bool sharded_runner) const {
  // One rule over the field table: no real leaf is NaN or infinite.
  std::string non_finite;
  for_each_config_field(*this, [&non_finite](std::string_view name, const auto& leaf, Runners) {
    if constexpr (std::is_same_v<std::remove_cvref_t<decltype(leaf)>, double>) {
      if (non_finite.empty() && !std::isfinite(leaf)) {
        non_finite = out_of_range(name, leaf, "finite");
      }
    }
  });
  if (!non_finite.empty()) return non_finite;
  const std::size_t n = overlay.node_count;
  if (n < 2) return out_of_range("overlay.node_count", n, "at least 2");
  if (sharded_runner && n < 4) {
    return out_of_range("overlay.node_count", n, "at least 4 for the sharded paper runner");
  }
  if (overlay.degree < 1 || overlay.degree >= n) {
    return out_of_range("overlay.degree", overlay.degree,
                        "in [1, overlay.node_count = " + std::to_string(n) + ")");
  }
  // Every check is written as !(in range) so that NaN is refused too.
  const std::pair<std::string_view, double> probabilities[] = {
      {"overlay.malicious_fraction", overlay.malicious_fraction},
      {"overlay.churn.departure_probability", overlay.churn.departure_probability},
      {"p_forward", p_forward},
      {"adversary.drop_probability", adversary.drop_probability},
      {"fault.link_loss", fault.link_loss},
      {"fault.probe_false_negative", fault.probe_false_negative},
      {"fault.bank.claim_loss", fault.bank.claim_loss},
      {"fault.bank.initiator_crash", fault.bank.initiator_crash},
      {"fault.bank.forwarder_crash", fault.bank.forwarder_crash},
  };
  for (const auto& [field, prob] : probabilities) {
    if (!(prob >= 0.0 && prob <= 1.0)) return out_of_range(field, prob, "in [0, 1]");
  }
  // Periods, means and bandwidths divide or set rates.
  const std::pair<std::string_view, double> positives[] = {
      {"probing.period", probing.period},
      {"overlay.churn.join_interarrival_mean", overlay.churn.join_interarrival_mean},
      {"overlay.churn.offline_gap_mean", overlay.churn.offline_gap_mean},
      {"connection_interval_mean", connection_interval_mean},
      {"overlay.link.bandwidth_lo", overlay.link.bandwidth_lo},
      {"overlay.link.bandwidth_hi", overlay.link.bandwidth_hi},
      {"data_phase.keepalive_interval", data_phase.keepalive_interval},
  };
  for (const auto& [field, value] : positives) {
    if (!(value > 0.0)) return out_of_range(field, value, "above 0");
  }
  if (!(overlay.link.bandwidth_lo <= overlay.link.bandwidth_hi)) {
    return out_of_range("overlay.link.bandwidth_lo", overlay.link.bandwidth_lo,
                        "at most overlay.link.bandwidth_hi = " +
                            std::to_string(overlay.link.bandwidth_hi));
  }
  // Durations and delays, where 0 means none (or, for a deadline, off).
  const std::pair<std::string_view, double> non_negatives[] = {
      {"overlay.link.payload_size", overlay.link.payload_size},
      {"overlay.link.propagation_delay", overlay.link.propagation_delay},
      {"warmup", warmup},
      {"pair_start_window", pair_start_window},
      {"p_f_lo", p_f_lo},  // a negative P_f commits a negative escrow
      {"fault.delay_jitter", fault.delay_jitter},
      {"fault.crash_rate_per_hour", fault.crash_rate_per_hour},
      {"fault.crash_recovery_mean", fault.crash_recovery_mean},
      {"fault.bank.claim_delay_mean", fault.bank.claim_delay_mean},
      {"fault.bank.claim_deadline", fault.bank.claim_deadline},
      {"fault.bank.close_after", fault.bank.close_after},
      {"fault.bank.claim_spread", fault.bank.claim_spread},
      {"async_setup.attempt_deadline", async_setup.attempt_deadline},
      {"data_phase.duration", data_phase.duration},
  };
  for (const auto& [field, value] : non_negatives) {
    if (!(value >= 0.0)) return out_of_range(field, value, "at least 0");
  }
  if (!(tau >= 0.0)) return out_of_range("tau", tau, "at least 0");
  if (const auto bad = weights.violation()) {
    return out_of_range("weights." + std::string(bad->member), bad->value, bad->rule);
  }
  if (!(p_f_lo <= p_f_hi)) {
    return out_of_range("p_f_lo", p_f_lo, "at most p_f_hi = " + std::to_string(p_f_hi));
  }
  // Funding bound (DESIGN.md §3): every pair may draw the same initiator,
  // whose balance must then fund the worst-case escrow of all their sets.
  // A set adopts at most connections_per_pair * (1 + kMaxReformations)
  // paths of at most max_forwarders forwarders, and commits P_f <= p_f_hi
  // per forwarding instance plus P_r = tau * P_f once. In milli-credits,
  // each amount rounded up by the half unit of payment::from_credits.
  const double instances = static_cast<double>(connections_per_pair) *
                           (1.0 + core::kMaxReformations) * path_builder.max_forwarders;
  const double worst_escrow_milli =
      static_cast<double>(pair_count) *
      (instances * (p_f_hi * 1000.0 + 0.5) + tau * p_f_hi * 1000.0 + 0.5);
  if (!(worst_escrow_milli <= kInitialBalanceCredits * 1000.0)) {
    std::ostringstream rule;
    rule << "small enough that one initiator's " << kInitialBalanceCredits
         << " credits fund the worst-case escrow pair_count * (connections_per_pair * "
         << (1 + core::kMaxReformations) << " * path_builder.max_forwarders + tau) * p_f_hi = "
         << worst_escrow_milli / 1000.0 << " credits";
    return out_of_range("tau", tau, rule.str());
  }
  // Session lengths are bounded Pareto on [session_min, session_max] with a
  // shape solved for the median, which must be one the solver can reach.
  const net::ChurnConfig& churn = overlay.churn;
  if (!(churn.session_min > 0.0 && churn.session_min < churn.session_max)) {
    return out_of_range("overlay.churn.session_min", churn.session_min,
                        "in (0, overlay.churn.session_max = " +
                            std::to_string(churn.session_max) + ")");
  }
  const double ceiling =
      sim::rng::bounded_pareto_median_ceiling(churn.session_min, churn.session_max);
  if (!(churn.session_median > churn.session_min && churn.session_median < ceiling)) {
    return out_of_range("overlay.churn.session_median", churn.session_median,
                        "in (session_min = " + std::to_string(churn.session_min) +
                            ", sqrt(session_min * session_max) = " + std::to_string(ceiling) +
                            ")");
  }
  if (engine_shards < 1) return out_of_range("engine_shards", engine_shards, "at least 1");
  // Read only by the K > 1 runner, but refused at every K like the rest.
  if (!(engine_window > 0.0)) return out_of_range("engine_window", engine_window, "above 0");
  if (!(view_refresh >= 0.0)) return out_of_range("view_refresh", view_refresh, "at least 0");
  const std::string_view knob = sharded_runner ? serial_only_knob(*this) : std::string_view{};
  if (knob.empty()) return {};
  return "the sharded paper runner does not implement ScenarioConfig::" + std::string(knob);
}

core::Contract ScenarioConfig::contract_for(double forwarding_benefit) const noexcept {
  core::Contract contract;
  contract.forwarding_benefit = forwarding_benefit;
  contract.tau = tau;
  contract.termination = termination;
  contract.p_forward = p_forward;
  contract.ttl_hops = ttl_hops;
  return contract;
}

ScenarioResult ScenarioRunner::run() const {
  const ScenarioConfig& cfg = cfg_;
  if (cfg.engine_shards > 1) return run_paper_scenario_sharded(cfg, nullptr);
  if (std::string err = cfg.validate(); !err.empty()) throw std::invalid_argument(err);
  sim::rng::Stream root(cfg.seed);
  sim::Simulator simulator;
  net::Overlay overlay(cfg.overlay, simulator, root.child("overlay"));
  net::ProbingEstimator probing(overlay, cfg.probing, root.child("probing"));
  core::HistoryStore history(overlay.size());

  // Fault mode: any enabled fault swaps the omniscient synchronous setup
  // for the timeout-driven async runner + keepalive data phase. With every
  // knob off none of these objects exist and every stream/draw/decision is
  // bitwise identical to the pre-fault implementation.
  const bool fault_mode = cfg.fault.enabled();
  std::optional<core::SuspicionTracker> suspicion;
  if (fault_mode) suspicion.emplace(overlay.size());
  std::optional<fault::FaultInjector> faults;
  if (fault_mode) {
    faults.emplace(cfg.fault, overlay, root.child("faults"));
    probing.set_probe_oracle([&f = *faults](net::NodeId prober, net::NodeId target) {
      return f.probe_observation(prober, target);
    });
  }

  // Transport plane: fault-mode legs/acks/keepalives and bank-fault
  // claim/close messages all travel through it (the synchronous path sends
  // nothing, so its counters stay zero there).
  transport::SimTransport transport(simulator, overlay, faults ? &*faults : nullptr);

  core::EdgeQualityEvaluator quality(probing, history, cfg.weights,
                                     suspicion ? &*suspicion : nullptr);
  // The builder owns the replicate's decision memo arena.
  core::PathBuilder builder(overlay, quality, cfg.path_builder);
  core::PayoffLedger ledger(overlay.size());

  std::optional<core::AsyncConnectionRunner> setup_runner;
  std::optional<core::DataPhaseRunner> data_runner;
  if (fault_mode) {
    setup_runner.emplace(simulator, overlay, builder, transport, cfg.async_setup, &*suspicion);
    data_runner.emplace(simulator, overlay, *setup_runner, transport, cfg.data_phase);
  }

  // Bank-fault mode (orthogonal to message/liveness faults): settlement runs
  // as the event-driven, deadline-guarded lifecycle instead of the
  // instantaneous post-run settle, and the bank journals every operation for
  // the end-of-run reconciliation.
  const bool bank_mode = cfg.fault.bank.enabled();

  // --- Bank: every node opens an account with a registered MAC key. The
  // audit log attaches before the first account opens so a journal replay
  // reconstructs the full state.
  payment::Bank bank(root.child("bank"));
  payment::AuditLog audit;
  if (bank_mode) bank.attach_audit(&audit);
  payment::SettlementEngine engine(bank);
  auto key_stream = root.child("mac-keys");
  const payment::Amount initial = payment::from_credits(kInitialBalanceCredits);
  for (net::NodeId id = 0; id < overlay.size(); ++id) {
    bank.open_account(id, initial, key_stream.child("key", id).next_u64());
  }
  const payment::Amount money_before = bank.total_money() + bank.outstanding_coin_value();

  // --- Strategy assignment.
  const auto strategy = core::make_strategy(cfg.good_strategy, cfg.lookahead_depth);
  core::StrategyAssignment strategies(overlay, *strategy);

  // --- Select the (I, R) pairs and their contracts.
  auto pair_stream = root.child("pairs");
  struct PairPlan {
    std::unique_ptr<core::ConnectionSetSession> session;
    sim::rng::Stream stream;
    std::uint32_t launched = 0;  ///< async launches (fault mode wire index)
  };
  std::vector<PairPlan> plans;
  plans.reserve(cfg.pair_count);
  for (net::PairId pid = 0; pid < cfg.pair_count; ++pid) {
    const auto initiator = static_cast<net::NodeId>(pair_stream.below(overlay.size()));
    net::NodeId responder = initiator;
    while (responder == initiator) {
      responder = cfg.responder_zipf > 0.0
                      ? static_cast<net::NodeId>(
                            pair_stream.zipf(overlay.size(), cfg.responder_zipf))
                      : static_cast<net::NodeId>(pair_stream.below(overlay.size()));
    }
    const core::Contract contract =
        cfg.contract_for(pair_stream.uniform(cfg.p_f_lo, cfg.p_f_hi));
    plans.emplace_back(
        std::make_unique<core::ConnectionSetSession>(pid, initiator, responder, contract),
        root.child("pair-run", pid));
    plans.back().session->reserve_connections(cfg.connections_per_pair);
    // Under bank faults a connection only counts as settleable once its data
    // phase confirmed completion; that signal exists only in fault mode.
    if (bank_mode && fault_mode) plans.back().session->enable_completion_tracking();
  }

  // --- Schedule: overlay churn (and fault hazards), then the recurring
  // connections. `result` exists before scheduling because fault-mode
  // completion callbacks write into it during the run.
  overlay.start();
  if (faults) faults->start();

  ScenarioResult result;
  result.new_edge_fraction_by_conn.resize(cfg.connections_per_pair);

  std::uint64_t connections_completed = 0;
  metrics::Accumulator latency;

  // Everything a connection launch touches, bundled so the scheduled lambda
  // captures one pointer (plus the pair id) instead of a dozen references —
  // small enough for EventCallback's inline buffer, so launch events do not
  // heap-allocate.
  struct LaunchContext {
    const ScenarioConfig& cfg;
    std::vector<PairPlan>& plans;
    net::Overlay& overlay;
    core::PathBuilder& builder;
    core::HistoryStore& history;
    core::StrategyAssignment& strategies;
    core::PayoffLedger& ledger;
    std::optional<core::AsyncConnectionRunner>& setup_runner;
    std::optional<core::DataPhaseRunner>& data_runner;
    ScenarioResult& result;
    metrics::Accumulator& latency;
    std::uint64_t& connections_completed;
    bool fault_mode;
    bool track_completion;
  };
  LaunchContext lctx{cfg,         plans,      overlay, builder,
                     history,     strategies, ledger,  setup_runner,
                     data_runner, result,     latency, connections_completed,
                     fault_mode,  bank_mode && fault_mode};

  auto schedule_stream = root.child("schedule");
  sim::Time last_connection_at = cfg.warmup;
  for (net::PairId pid = 0; pid < cfg.pair_count; ++pid) {
    sim::Time at = cfg.warmup + schedule_stream.uniform(0.0, cfg.pair_start_window);
    for (std::uint32_t j = 0; j < cfg.connections_per_pair; ++j) {
      simulator.schedule_at(at, [ctx = &lctx, pid] {
        PairPlan& p = ctx->plans[pid];
        // The endpoints must be online for the connection to run; the paper's
        // recurring applications (HTTP, FTP, ...) imply an active initiator.
        ctx->overlay.force_online(p.session->initiator());
        ctx->overlay.force_online(p.session->responder());
        if (!ctx->fault_mode) {
          const core::BuiltPath& path = p.session->run_connection(
              ctx->builder, ctx->history, ctx->strategies, ctx->ledger, ctx->overlay,
              p.stream, ctx->cfg.adversary);
          ctx->latency.add(ctx->overlay.links().path_latency(path.nodes));
          ++ctx->connections_completed;
          return;
        }

        // Fault mode: timeout-driven setup, then a keepalive data phase
        // whose detected failures re-form the path. Wire ids are (pair,
        // launch order): completions may interleave across the pair's
        // connections.
        const std::uint32_t conn = ++p.launched;
        ctx->setup_runner->establish(
            pid, conn, p.session->initiator(), p.session->responder(),
            p.session->contract(), ctx->strategies, p.stream.child("setup", conn),
            [ctx, pid, conn](const core::AsyncResult& r) {
              PairPlan& plan = ctx->plans[pid];
              // A setup that completes after the set settled (possible only
              // in bank-fault mode, where the simulator keeps running through
              // the settlement phase) joins nothing: the escrow is committed
              // and the records are filed.
              if (plan.session->settled()) return;
              ScenarioResult& result = ctx->result;
              result.setup_attempts += r.attempts;
              result.setup_ack_timeouts += r.ack_timeouts;
              result.reformations += r.attempts - 1;
              if (!r.established) {
                ++result.connections_failed;
                return;
              }
              result.setup_time.add(r.setup_time);
              const core::BuiltPath& path = plan.session->adopt_connection(
                  r.path, ctx->history, ctx->ledger, ctx->overlay);
              // Session adoption index of this connection (completions can
              // interleave across a pair, so capture it now, not at launch).
              const std::uint32_t adopted = plan.session->connections_run();
              ctx->latency.add(ctx->overlay.links().path_latency(path.nodes));
              ++ctx->connections_completed;
              ctx->data_runner->run(
                  pid, conn, path, plan.session->contract(), ctx->strategies,
                  plan.stream.child("data", conn),
                  [ctx, pid, adopted](const core::DataPhaseResult& d) {
                    PairPlan& owner = ctx->plans[pid];
                    if (owner.session->settled()) return;  // set already settled
                    ScenarioResult& result = ctx->result;
                    result.keepalives_sent += d.keepalives_sent;
                    result.keepalives_delivered += d.keepalives_delivered;
                    result.failures_detected += d.failures_detected;
                    result.reformations += d.reformations;
                    result.setup_attempts += d.reform_setup_attempts;
                    for (const sim::Time lag : d.detection_delays) {
                      result.time_to_detect.add(lag);
                    }
                    // The connection's live path is the last adopted one: the
                    // original if it never re-formed, else the final re-form.
                    std::uint32_t live = adopted;
                    for (const core::BuiltPath& reformed : d.reformed_paths) {
                      (void)owner.session->adopt_connection(reformed, ctx->history,
                                                            ctx->ledger, ctx->overlay);
                      live = owner.session->connections_run();
                    }
                    if (ctx->track_completion && d.completed) {
                      owner.session->mark_completed(live);
                    }
                  });
            });
      });
      last_connection_at = std::max(last_connection_at, at);
      at += schedule_stream.exponential(1.0 / cfg.connection_interval_mean);
    }
  }

  // Run just past the last connection; churn and probing are open-ended
  // (availability attackers never leave), so a horizon — not queue drain —
  // ends the run. Fault mode needs room for the last connection's data
  // phase (plus its re-formations) to play out.
  const sim::Time tail =
      fault_mode ? cfg.data_phase.duration + sim::minutes(10.0) : sim::minutes(1.0);
  simulator.run_until(last_connection_at + tail);

  // --- Settle every pair through the payment system.
  auto settle_stream = root.child("settle");
  std::vector<core::SettleOutcome> outcomes;
  outcomes.reserve(plans.size());
  if (!bank_mode) {
    for (PairPlan& plan : plans) {
      outcomes.push_back(plan.session->settle(bank, engine, ledger, settle_stream));
    }
  } else {
    // Event-driven settlement lifecycle: every escrow is funded and opened
    // now, but claims arrive as lossy, delayed bank messages, the
    // initiator's close may never come (crash between funding and close),
    // and the deadline sweep terminalises whatever is left on its own —
    // abandoning with a pro-rata payout, or expiring with a full refund.
    const fault::BankFaultConfig& bf = cfg.fault.bank;
    // The bank's message plane: claims and closes arrive as wire messages
    // and dispatch synchronously inside their scheduled events.
    transport.set_bank_handler([&engine](const transport::wire::WireMessage& m) {
      if (const auto* c = std::get_if<transport::wire::ClaimMsg>(&m)) {
        (void)engine.submit_claim(c->sid, c->claimant, c->receipt);
      } else if (const auto* cl = std::get_if<transport::wire::CloseMsg>(&m)) {
        (void)engine.close(cl->sid);
      }
    });
    auto bank_fault_stream = root.child("bank-faults");
    const sim::Time t0 = simulator.now();
    const sim::Time deadline = t0 + bf.claim_deadline;
    std::vector<payment::SettlementId> sids(plans.size());
    for (std::size_t i = 0; i < plans.size(); ++i) {
      auto fs = bank_fault_stream.child("pair", i);
      const core::PreparedSettlement prep =
          plans[i].session->open_settlement(bank, engine, settle_stream, deadline);
      sids[i] = prep.sid;

      // One crash draw per distinct claimant, in first-appearance order: a
      // crashed forwarder never sends any of its claims.
      std::vector<payment::AccountId> drawn;
      std::vector<payment::AccountId> crashed;
      for (const core::ClaimSubmission& claim : prep.claims) {
        if (std::find(drawn.begin(), drawn.end(), claim.claimant) != drawn.end()) continue;
        drawn.push_back(claim.claimant);
        if (fs.bernoulli(bf.forwarder_crash)) crashed.push_back(claim.claimant);
      }

      for (const core::ClaimSubmission& claim : prep.claims) {
        if (std::find(crashed.begin(), crashed.end(), claim.claimant) != crashed.end()) {
          ++result.claims_lost;  // never sent: the claimant is down
          continue;
        }
        const sim::Time spread = fs.uniform(0.0, bf.claim_spread);
        const sim::Time delay =
            bf.claim_delay_mean > 0.0 ? fs.exponential(1.0 / bf.claim_delay_mean) : 0.0;
        if (fs.bernoulli(bf.claim_loss)) {
          ++result.claims_lost;  // lost on the way to the bank
          continue;
        }
        // A delay past the deadline is not special-cased: the claim arrives,
        // the settlement is already terminal, and the engine refuses it
        // (claims_after_terminal) — exactly the race the lifecycle guards.
        simulator.schedule_at(
            t0 + spread + delay,
            [tp = &transport,
             m = transport::wire::ClaimMsg{prep.sid, claim.claimant, claim.receipt}] {
              tp->post_to_bank(m);
            });
      }

      if (!fs.bernoulli(bf.initiator_crash)) {
        simulator.schedule_at(t0 + bf.close_after,
                              [tp = &transport, m = transport::wire::CloseMsg{prep.sid}] {
                                tp->post_to_bank(m);
                              });
      }
    }
    simulator.schedule_at(deadline,
                          [&engine, &simulator] { (void)engine.expire_due(simulator.now()); });
    simulator.run_until(deadline + sim::minutes(1.0));
    assert(engine.open_settlements() == 0 && "deadline sweep left a settlement open");
    for (std::size_t i = 0; i < plans.size(); ++i) {
      outcomes.push_back(plans[i].session->finalize_settlement(bank, engine, ledger, sids[i]));
    }
  }

  // NodeId-indexed; each pair zeroes the entries its paths touched after use.
  std::vector<double> member_cost(overlay.size(), 0.0);
  for (std::size_t pi = 0; pi < plans.size(); ++pi) {
    core::ConnectionSetSession& session = *plans[pi].session;
    const core::SettleOutcome& outcome = outcomes[pi];

    switch (outcome.report.outcome) {
      case payment::SettlementState::kClosed: ++result.settlements_closed; break;
      case payment::SettlementState::kAbandoned: ++result.settlements_abandoned; break;
      case payment::SettlementState::kExpired: ++result.settlements_expired; break;
      default: break;  // non-terminal outcomes cannot reach a report
    }
    if (outcome.report.pro_rata) ++result.settlements_prorata;
    result.settlement_escrow_milli += outcome.report.escrow_in;
    result.settlement_paid_milli += outcome.report.paid_out;
    result.settlement_refunded_milli += outcome.report.refunded;

    const auto set_size = static_cast<double>(outcome.forwarder_set_size);
    result.forwarder_set_size.add(set_size);
    result.avg_path_length.add(session.average_path_length());
    result.path_quality.add(session.path_quality());
    result.initiator_spend.add(outcome.initiator_spend);
    result.initiator_utility.add(metrics::anonymity_value(set_size) - outcome.initiator_spend);
    result.total_paid_credits += payment::to_credits(outcome.report.paid_out);
    result.reformations += session.reformations();

    const auto& fractions = session.new_edge_fractions();
    for (std::size_t j = 0; j < fractions.size() && j < result.new_edge_fraction_by_conn.size();
         ++j) {
      result.new_edge_fraction_by_conn[j].add(fractions[j]);
    }

    // Membership payoff: for every good member of this pair's forwarder set,
    // its settlement payout (m*P_f + routing share) minus the transmission
    // costs of its instances within the set and its participation cost.
    for (const core::BuiltPath& p : session.paths()) {
      for (std::size_t i = 1; i + 1 < p.nodes.size(); ++i) {
        member_cost[p.nodes[i]] +=
            overlay.links().transmission_cost(p.nodes[i], p.nodes[i + 1]);
      }
    }
    for (const auto& [acct, amount] : outcome.report.payouts) {
      const net::NodeId owner = bank.account_owner(acct);
      if (owner == net::kInvalidNode || !overlay.state().is_good(owner)) continue;
      const double payoff = payment::to_credits(amount) - member_cost[owner] -
                            overlay.state().participation_cost[owner];
      result.member_payoff.add(payoff);
      result.member_payoff_samples.push_back(payoff);
    }
    for (const core::BuiltPath& p : session.paths()) {
      for (std::size_t i = 1; i + 1 < p.nodes.size(); ++i) member_cost[p.nodes[i]] = 0.0;
    }
  }

  // --- Node-level payoffs (good nodes).
  result.good_payoff = ledger.good_node_payoffs(overlay);
  result.good_payoff_samples = ledger.good_node_payoff_samples(overlay);

  result.routing_efficiency =
      result.forwarder_set_size.mean() > 0.0
          ? result.member_payoff.mean() / result.forwarder_set_size.mean()
          : 0.0;

  const sim::EventQueue::Stats& queue_stats = simulator.queue_stats();
  result.engine_events_scheduled = queue_stats.scheduled;
  result.engine_events_cancelled = queue_stats.cancelled;
  result.engine_events_fired = queue_stats.fired;
  result.engine_callback_heap_allocs = queue_stats.callback_heap_allocs;
  const transport::TransportCounters& tc = transport.counters();
  result.transport_frames_sent = tc.frames_sent;
  result.transport_frames_delivered = tc.frames_delivered;
  result.transport_frames_dropped = tc.frames_dropped;
  result.transport_frames_rejected = tc.frames_rejected;

  result.connection_latency = latency;
  result.churn_events = overlay.churn_events();
  result.probes = probing.probes_performed();
  result.connections_completed = connections_completed;
  result.sim_end_time = simulator.now();
  if (faults) {
    result.crashes = faults->crashes();
    result.messages_dropped = faults->messages_dropped();
    result.probe_false_negatives = faults->probe_false_negatives();
  }

  const payment::Amount money_after = bank.total_money() + bank.outstanding_coin_value();
  result.payment_conserved = money_before == money_after;

  result.claims_submitted = engine.claims_accepted() + engine.claims_rejected();
  result.claims_rejected = engine.claims_rejected();
  result.claims_after_terminal = engine.claims_after_terminal();

  if (bank_mode) {
    // The bank side against the node side: the full C1–C5 audit.
    result.settlement_reconciled =
        payment::audit_settlements(bank, audit, engine, money_before).ok();
  }

  return result;
}

}  // namespace p2panon::harness
