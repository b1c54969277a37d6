// The full paper scenario at K > 1 shards.
//
// The serial scenario (harness/scenario.cpp) owns one Overlay, one
// HistoryStore, and one SettlementEngine — single-owner state that pins it
// to K = 1. This runner re-expresses the paper workload on the sharded
// substrate so the whole pipeline scales:
//
//   * nodes are partitioned contiguously across K shards
//     (net::ShardPartition); churn, probing, and per-node traffic events
//     run on the owning shard (net::ShardedProbing live/published split);
//   * connection history lives in one unbounded core::HistoryStore —
//     completed paths are buffered per source shard during a window and
//     folded serially in the window-barrier hook at view-refresh epoch
//     boundaries, so the store is a read-only merged view while shards run;
//   * paths are formed by the serial runner's core::PathBuilder, one per
//     shard, which reads ONLY epoch snapshots (published liveness through
//     a net::LivenessView, a snapshot estimator, folded history
//     selectivity) plus static topology, kinds and costs, so a pair's
//     paths are identical for any K, pool size, or window length dividing
//     the refresh interval;
//   * pair settlement is batched: completed pairs enqueue their settlement
//     ops (open -> aggregated forwarder-epoch claims -> close) into
//     per-shard FIFO buffers, and the serial barrier hook drains the
//     buffers shard-ascending into the payment::ShardedSettlementPlane —
//     B independent bank partitions with batched MAC verification and a
//     deterministic merge reconciliation after the final barrier.
//
// Determinism contract (pinned by tests/harness/test_paper_sharded.cpp):
// for fixed {seed, K} the run is bitwise deterministic across thread-pool
// sizes AND across window lengths that divide the view-refresh interval —
// ScenarioResult::sharded_digest covers only order-invariant end state
// (per-pair settlement outcomes, merged balance deltas, model counters,
// probing/history end state), never op-order-dependent ids (escrow ids,
// audit sequence numbers) or horizon-racing cross-shard deliveries.
#pragma once

#include "harness/scenario.hpp"

namespace p2panon::parallel {
class ThreadPool;
}

namespace p2panon::harness {

/// Run one full-paper-scenario replicate on cfg.engine_shards > 1 shards.
/// `pool` may be nullptr (shards run serially per window — identical
/// results, by the determinism contract). ScenarioRunner::run() routes here
/// automatically when cfg.engine_shards > 1. Throws std::invalid_argument
/// with cfg.validate(/*sharded_runner=*/true)'s message, at any K.
[[nodiscard]] ScenarioResult run_paper_scenario_sharded(const ScenarioConfig& cfg,
                                                        parallel::ThreadPool* pool);

}  // namespace p2panon::harness
