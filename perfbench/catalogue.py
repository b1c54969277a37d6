"""The benchmark's workloads and metrics: names, units, and what each
per-layer metric is expected to move. BENCHMARK.json at the repository root
is generated from this file (``python3 perfbench/run.py --write-benchmark-json``)
and the self-test checks the two agree."""

# Seconds one run measures for (the benchmark's --seconds default).
RUN_SECONDS = 10

# Workloads, with the reason each was chosen.
WORKLOADS = [
    ("paper_sweep",
     "paper Fig. 3/4 grid, 288 replicates on min(4, nproc) threads: decision stack "
     "dominates, setup ~0, no wire frames, one engine shard"),
    ("fault_population",
     "one fault-mode replicate at N=1e4 with Zipf responders and bank faults: codec, "
     "cancel-heavy queue, settlement lifecycle, O(N^2) setup"),
    ("sharded_scale",
     "N=1e5, K=4, 2 simulated hours of the windowed sharded run on min(4, nproc) threads: "
     "mailboxes, barriers, probing and pick_best past the LLC; O(N^2) setup"),
]

# End-to-end metrics, measured with tracing off: (name, unit, better, bound).
# A run is rounds of one zero-horizon setup call and one full pass (at least
# two rounds); each figure is a median over the rounds. replicates_per_s
# divides the pass's replicates by its run phase (pass minus setup of the
# same round), so it never includes setup. The bounds are the widest allowed
# because timings on a shared 4-core host spread 6-21% (quartile distance
# over median) across runs. conn_fail_share (a model output, 0 on
# paper_sweep) and check_failures (always 0) are printed with these but
# listed as per-layer metrics: a bounded metric must never be 0.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("replicates_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.15),
]

# Per-layer metrics of the traced run: (name, unit, what it should move).
# Counts come from the untraced pass of the same process; times from spans.
PER_LAYER = [
    ("conn_fail_share", "ratio", "model output: failed / attempted connections (0 on paper_sweep)"),
    ("check_failures", "count", "correctness gate: must be 0"),
    # sim
    ("sim.events_fired", "count", "wall_s on fault_population and sharded_scale"),
    ("sim.events_scheduled", "count", "wall_s on fault_population and sharded_scale"),
    ("sim.events_cancelled", "count", "wall_s on fault_population and sharded_scale"),
    ("sim.cancel_ratio", "ratio", "wall_s on fault_population and sharded_scale"),
    ("sim.callback_heap_allocs", "count", "must stay 0"),
    ("sim.cross_shard_messages", "count", "wall_s on sharded_scale"),
    ("sim.window_barriers", "count", "wall_s on sharded_scale"),
    ("sim.run_ns_per_event", "ns", "wall_s on fault_population and sharded_scale"),
    ("sim.warmup_ms", "ms", "wall_s on fault_population (0 on sharded_scale: no warm-up)"),
    ("sim.zipf_pick_ms", "ms", "setup_s on fault_population (0 elsewhere)"),
    ("sim.sample_indices_ms", "ms", "setup_s on fault_population and sharded_scale (~0 on paper_sweep)"),
    # net
    ("net.overlay_build_ms", "ms", "setup_s on paper_sweep and fault_population (0 on sharded_scale)"),
    ("net.probes", "count", "wall_s on sharded_scale"),
    ("net.churn_events", "count", "wall_s on fault_population"),
    ("net.probe_ns", "ns", "wall_s on sharded_scale (0 elsewhere)"),
    # core
    ("core.paths_built", "count", "replicates_per_s on paper_sweep (0 on sharded_scale: bypassed)"),
    ("core.path_build_us.model1.p50", "us", "replicates_per_s on paper_sweep (0 elsewhere)"),
    ("core.path_build_us.model1.p95", "us", "replicates_per_s on paper_sweep (0 elsewhere)"),
    ("core.path_build_us.model2.p50", "us", "replicates_per_s on paper_sweep (0 elsewhere)"),
    ("core.path_build_us.model2.p95", "us", "replicates_per_s on paper_sweep (0 elsewhere)"),
    ("core.pick_best_ns", "ns", "wall_s on sharded_scale (0 elsewhere)"),
    ("core.setup_success_ratio", "ratio", "wasted work on fault_population"),
    ("core.reformations", "count", "wasted work on fault_population"),
    ("core.forwarder_set_size", "nodes", "model output: a speed-up must leave it unchanged"),
    ("core.path_length", "hops", "model output: a speed-up must leave it unchanged"),
    # payment
    ("payment.settlements_closed", "count", "wall_s on fault_population"),
    ("payment.settlements_abandoned", "count", "wall_s on fault_population"),
    ("payment.settlements_expired", "count", "wall_s on fault_population"),
    ("payment.claims_submitted", "count", "wall_s on fault_population"),
    ("payment.claims_lost", "count", "wall_s on fault_population"),
    ("payment.claims_rejected", "count", "wall_s on fault_population"),
    ("payment.account_open_ms", "ms", "setup_s on fault_population (0 on sharded_scale)"),
    ("payment.settle_us.p50", "us", "replicates_per_s on paper_sweep and wall_s on fault_population"),
    ("payment.settle_us.p95", "us", "replicates_per_s on paper_sweep and wall_s on fault_population"),
    ("payment.withdraw_us", "us", "replicates_per_s on paper_sweep and wall_s on fault_population"),
    ("payment.mac_ns", "ns", "wall_s on fault_population"),
    # transport
    ("transport.frames_sent", "count", "wall_s on fault_population"),
    ("transport.frames_delivered", "count", "wall_s on fault_population"),
    ("transport.frames_dropped", "count", "wall_s on fault_population"),
    ("transport.frames_rejected", "count", "wall_s on fault_population (must stay 0)"),
    ("transport.frames_per_connection", "ratio", "wall_s on fault_population"),
    ("transport.encode_ns", "ns", "wall_s on fault_population (0 elsewhere)"),
    ("transport.decode_ns", "ns", "wall_s on fault_population (0 elsewhere)"),
    ("transport.bytes_per_frame", "bytes", "wall_s on fault_population (0 elsewhere)"),
    # fault
    ("fault.messages_dropped", "count", "wall_s on fault_population"),
    ("fault.crashes", "count", "wall_s on fault_population"),
    ("fault.ack_timeouts", "count", "wall_s on fault_population and sharded_scale"),
    ("fault.decision_ns", "ns", "wall_s on fault_population (0 elsewhere)"),
    # parallel
    ("parallel.busy_share", "ratio", "replicates_per_s on paper_sweep (0 elsewhere)"),
    ("parallel.task_wait_ms.p50", "ms", "replicates_per_s on paper_sweep (0 elsewhere)"),
    ("parallel.shard_speedup", "ratio", "wall_s on sharded_scale (0 elsewhere)"),
    # harness
    ("harness.replicate_ms.p50", "ms", "replicates_per_s on paper_sweep"),
    ("harness.replicate_ms.p95", "ms", "replicates_per_s on paper_sweep"),
]


def benchmark_json():
    """The BENCHMARK.json document this catalogue defines."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "higher" if n in HIGHER_IS_BETTER else "lower"}
                      for n, u, _ in PER_LAYER],
    }


HIGHER_IS_BETTER = {"parallel.busy_share", "parallel.shard_speedup", "core.setup_success_ratio"}
