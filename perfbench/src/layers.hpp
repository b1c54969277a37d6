// Traced per-layer measurements: each times one call of one layer of the
// program, on inputs generated here from the benchmark seed at a workload's
// shape, and records a span per call (or per batch of nanosecond-scale
// calls) under the caller's parent span.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/routing.hpp"
#include "fault/fault.hpp"
#include "sim/types.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Median and 95th percentile of a sample (0 for an empty sample).
struct Quantiles {
  double p50 = 0.0;
  double p95 = 0.0;
};
[[nodiscard]] Quantiles quantiles(std::vector<double> samples);

/// sim: Stream::sample_indices(n - 1, d) once per node, as an overlay build
/// draws neighbour sets. Returns milliseconds for all n calls.
double time_sample_indices_ms(Tracer& tracer, int parent, std::uint64_t seed, std::size_t n,
                              std::size_t d);

/// sim: Stream::zipf(n, 1.0) `draws` times. Returns milliseconds in total.
double time_zipf_ms(Tracer& tracer, int parent, std::uint64_t seed, std::size_t n,
                    std::size_t draws);

/// net + sim: net::Overlay construction plus start(), then
/// Simulator::run_until(warmup) over the bare overlay and a
/// net::ProbingEstimator. With `faults`, fault: a FaultInjector over the
/// warmed-up overlay deciding the fate (drop, extra delay) of messages
/// between random neighbours.
struct OverlayTiming {
  double build_ms = 0.0;
  double warmup_ms = 0.0;
  double fault_decision_ns = 0.0;
};
OverlayTiming time_overlay(Tracer& tracer, int parent, std::uint64_t seed, std::size_t n,
                           std::size_t d, p2panon::sim::Time warmup,
                           const p2panon::fault::FaultConfig* faults = nullptr);

/// core: ConnectionSetSession::run_connection per connection, at the paper
/// scenario's shape (N = 40, d = 5, 100 pairs x 20 connections) with the
/// given strategy. Returns per-connection microseconds.
Quantiles time_path_build_us(Tracer& tracer, int parent, std::uint64_t seed,
                             p2panon::core::StrategyKind strategy, double malicious_fraction,
                             std::size_t pairs, std::uint32_t connections);

/// payment: accounts for n nodes, then per pair the settlement sequence
/// Wallet::withdraw, Bank::open_escrow, SettlementEngine::open, one
/// submit_claim per forwarding instance, close — over `pairs` pairs of
/// `connections` paths of `forwarders` forwarders each.
struct PaymentTiming {
  double account_open_ms = 0.0;
  Quantiles settle_us;
  double withdraw_us = 0.0;  ///< median per pair
  double mac_ns = 0.0;       ///< payment::make_receipt, per receipt
};
PaymentTiming time_payment(Tracer& tracer, int parent, std::uint64_t seed, std::size_t n,
                           std::size_t pairs, std::uint32_t connections, std::size_t forwarders,
                           Checks& checks);

/// transport: encode and decode over a frame-type mix. Weights are the
/// expected frames per type (legs, acks, keepalive hops, claims, closes).
struct FrameMix {
  double legs = 0.0;
  double acks = 0.0;
  double data = 0.0;
  double claims = 0.0;
  double closes = 0.0;
};
struct CodecTiming {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  double bytes_per_frame = 0.0;
};
CodecTiming time_codec(Tracer& tracer, int parent, std::uint64_t seed, const FrameMix& mix,
                       Checks& checks);

/// net + core: ShardedProbing::probe and ShardedEdgeQuality::pick_best over
/// every node of an n-node, degree-d SoA overlay split into k shards.
struct ShardedDecisionTiming {
  double probe_ns = 0.0;
  double pick_best_ns = 0.0;
};
ShardedDecisionTiming time_sharded_decisions(Tracer& tracer, int parent, std::uint64_t seed,
                                             std::size_t n, std::size_t d, std::uint32_t k);

}  // namespace perfbench
