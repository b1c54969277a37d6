// Adaptive sequential stopping + checkpoint/resume (DESIGN.md §3.12).
//
// The load-bearing properties:
//  * off-mode is bitwise-inert (identical to the fixed-count harness),
//  * checkpointing never changes results, only where a crash can restart,
//  * a killed run resumed from its checkpoint equals an uninterrupted run
//    bit-for-bit (death tests inject the kill via --kill-after-batch),
//  * adaptivity stops early on tight cells and respects the hard cap.
#include "harness/adaptive.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "config_walk.hpp"
#include "expect_bits.hpp"
#include "harness/checkpoint.hpp"
#include "harness/replicate.hpp"

using namespace p2panon;
using namespace p2panon::harness;
using harness_test::expect_bits_eq;

namespace {

std::filesystem::path temp_path(const std::string& name) {
  const auto p = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove(p);
  return p;
}

/// Deterministic synthetic replicate: two columns, a mean-like value with
/// small spread and an exact 0/1 pass flag.
std::vector<double> synthetic(std::size_t i, double spread) {
  return {5.0 + spread * std::sin(static_cast<double>(i) * 0.73), 1.0};
}

ScenarioConfig tiny_config(std::uint64_t seed = 1) {
  ScenarioConfig cfg = paper_default_config(seed);
  cfg.overlay.node_count = 15;
  cfg.overlay.degree = 3;
  cfg.pair_count = 5;
  cfg.connections_per_pair = 4;
  cfg.warmup = sim::minutes(20.0);
  cfg.pair_start_window = sim::minutes(20.0);
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------------------
// Flag parsing.
// ---------------------------------------------------------------------------

TEST(ParseAdaptiveFlags, ConsumesFlagsAndCompactsPositionals) {
  std::vector<std::string> store = {"prog",         "42",   "--adaptive",
                                    "--eps",        "0.1",  "--checkpoint",
                                    "ck.txt",       "7",    "--kill-after-batch",
                                    "2"};
  std::vector<char*> argv;
  for (auto& s : store) argv.push_back(s.data());
  int argc = static_cast<int>(argv.size());
  const AdaptiveConfig cfg = parse_adaptive_flags(argc, argv.data(), 0.05);
  EXPECT_TRUE(cfg.adaptive);
  EXPECT_DOUBLE_EQ(cfg.eps, 0.1);
  EXPECT_EQ(cfg.checkpoint, "ck.txt");
  EXPECT_EQ(cfg.kill_after_batches, 2u);
  // Positionals survive, in order, with the sweep flags spliced out.
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "42");
  EXPECT_STREQ(argv[2], "7");
}

TEST(ParseAdaptiveFlags, DefaultIsInert) {
  std::vector<std::string> store = {"prog", "13"};
  std::vector<char*> argv;
  for (auto& s : store) argv.push_back(s.data());
  int argc = static_cast<int>(argv.size());
  const AdaptiveConfig cfg = parse_adaptive_flags(argc, argv.data(), 0.02);
  EXPECT_FALSE(cfg.adaptive);
  EXPECT_DOUBLE_EQ(cfg.eps, 0.02);
  EXPECT_TRUE(cfg.checkpoint.empty());
  EXPECT_EQ(cfg.kill_after_batches, 0u);
  EXPECT_EQ(argc, 2);
}

// ---------------------------------------------------------------------------
// Stopping arithmetic.
// ---------------------------------------------------------------------------

TEST(AnytimeStop, NeverStopsBelowTwoSamples) {
  metrics::Accumulator acc;
  acc.add(5.0);  // t interval degenerates to half-width 0 here
  EXPECT_FALSE(anytime_stop({{&acc, 100.0, false}}, {}, 0.05, 1));
  acc.add(5.0);
  EXPECT_TRUE(anytime_stop({{&acc, 100.0, false}}, {}, 0.05, 1));
}

TEST(AnytimeStop, RelativeTargetOnZeroMeanNeverStops) {
  metrics::Accumulator acc;
  for (int i = 0; i < 50; ++i) acc.add(0.0);
  // eps_abs = eps * |mean| = 0: conservative "run to the cap".
  EXPECT_FALSE(anytime_stop({{&acc, 0.1, true}}, {}, 0.05, 1));
}

TEST(AnytimeStop, NoTargetsMeansNoStopping) {
  EXPECT_FALSE(anytime_stop({}, {}, 0.05, 1));
}

TEST(AnytimeStop, PassRateNeedsTrialsAndAllPassVolume) {
  EXPECT_FALSE(anytime_stop({}, {{0, 0, 0.8}}, 0.05, 1));
  // 10 clean trials are nowhere near enough for an LCB of 0.8...
  EXPECT_FALSE(anytime_stop({}, {{10, 10, 0.8}}, 0.05, 1));
  // ...but a few hundred are.
  EXPECT_TRUE(anytime_stop({}, {{400, 400, 0.8}}, 0.05, 2));
  // A failing record at the same volume does not clear the bar.
  EXPECT_FALSE(anytime_stop({}, {{200, 400, 0.8}}, 0.05, 2));
}

TEST(PlanNextBatch, RespectsRemainingBudgetAndGeometricGrowth) {
  metrics::Accumulator noisy;
  for (int i = 0; i < 8; ++i) noisy.add(i % 2 ? 100.0 : 0.0);
  const std::vector<StopTarget> targets = {{&noisy, 1e-6, false}};  // wants huge n
  EXPECT_EQ(plan_next_batch(targets, {}, 0.05, 1, 10, 10, 4), 0u);  // done == cap
  // Growth is capped at max(min_batch, done) even when Hoeffding wants more.
  EXPECT_EQ(plan_next_batch(targets, {}, 0.05, 2, 8, 1000, 4), 8u);
  EXPECT_EQ(plan_next_batch(targets, {}, 0.05, 2, 2, 1000, 4), 4u);
  // Never exceeds the remaining budget.
  EXPECT_EQ(plan_next_batch(targets, {}, 0.05, 3, 8, 11, 4), 3u);
}

TEST(PlanNextBatch, FirstBatchIsMinBatch) {
  metrics::Accumulator empty;
  EXPECT_EQ(plan_next_batch({{&empty, 0.05, false}}, {}, 0.05, 1, 0, 100, 8), 8u);
}

// ---------------------------------------------------------------------------
// AdaptiveRunner.
// ---------------------------------------------------------------------------

namespace {

std::vector<MetricSpec> two_specs() {
  using Kind = MetricSpec::Kind;
  return {{"value", Kind::kMean, 0.0, false, 0.0},
          {"passed", Kind::kPassRate, 0.0, false, 0.8}};
}

}  // namespace

TEST(AdaptiveRunner, FixedModeMatchesManualFold) {
  AdaptiveRunner runner(AdaptiveConfig{}, two_specs());
  const auto cell = runner.run_cell("fixed", 1, 16,
                                    [](std::size_t i) { return synthetic(i, 1.0); });
  metrics::Accumulator manual;
  for (std::size_t i = 0; i < 16; ++i) manual.add(synthetic(i, 1.0)[0]);
  expect_bits_eq(cell.metrics[0], manual);
  EXPECT_EQ(cell.outcome.replicates_used, 16u);
  EXPECT_EQ(cell.outcome.replicates_planned, 16u);
  EXPECT_EQ(cell.outcome.batches, 1u);  // fixed count: one batch
  EXPECT_FALSE(cell.outcome.stopped_early);
  EXPECT_FALSE(cell.outcome.resumed);
  EXPECT_TRUE(cell.outcome.complete);
}

TEST(AdaptiveRunner, ParallelFoldMatchesSerialBitwise) {
  parallel::ThreadPool pool(4);
  AdaptiveRunner runner(AdaptiveConfig{}, two_specs());
  const auto serial = runner.run_cell("par", 1, 24,
                                      [](std::size_t i) { return synthetic(i, 1.0); });
  const auto par = runner.run_cell("par", 1, 24,
                                   [](std::size_t i) { return synthetic(i, 1.0); }, &pool);
  expect_bits_eq(serial.metrics[0], par.metrics[0]);
  expect_bits_eq(serial.metrics[1], par.metrics[1]);
}

TEST(AdaptiveRunner, CheckpointingAloneIsBitwiseInert) {
  const auto ckpt = temp_path("adaptive_inert.ckpt");
  AdaptiveRunner plain(AdaptiveConfig{}, two_specs());
  AdaptiveConfig with_ckpt;
  with_ckpt.checkpoint = ckpt.string();
  with_ckpt.min_batch = 4;  // forces several doubling batches over 24 replicates
  AdaptiveRunner saver(with_ckpt, two_specs());

  const auto a = plain.run_cell("cell", 7, 24,
                                [](std::size_t i) { return synthetic(i, 1.0); });
  const auto b = saver.run_cell("cell", 7, 24,
                                [](std::size_t i) { return synthetic(i, 1.0); });
  expect_bits_eq(a.metrics[0], b.metrics[0]);
  expect_bits_eq(a.metrics[1], b.metrics[1]);
  EXPECT_EQ(a.outcome.replicates_used, b.outcome.replicates_used);
  EXPECT_GT(b.outcome.batches, 1u);
  EXPECT_TRUE(std::filesystem::exists(ckpt));
}

TEST(AdaptiveRunner, CompletedCellReplaysFromCheckpointWithoutRerunning) {
  const auto ckpt = temp_path("adaptive_replay.ckpt");
  AdaptiveConfig cfg;
  cfg.checkpoint = ckpt.string();
  std::size_t calls = 0;
  const auto replicate = [&calls](std::size_t i) {
    ++calls;
    return synthetic(i, 1.0);
  };
  AdaptiveRunner first(cfg, two_specs());
  const auto a = first.run_cell("cell", 7, 12, replicate);
  EXPECT_EQ(calls, 12u);
  AdaptiveRunner second(cfg, two_specs());
  const auto b = second.run_cell("cell", 7, 12, replicate);
  EXPECT_EQ(calls, 12u);  // replayed, not recomputed
  EXPECT_TRUE(b.outcome.resumed);
  EXPECT_TRUE(b.outcome.complete);
  expect_bits_eq(a.metrics[0], b.metrics[0]);
  expect_bits_eq(a.metrics[1], b.metrics[1]);
}

TEST(AdaptiveRunner, FingerprintMismatchDiscardsStoredCell) {
  const auto ckpt = temp_path("adaptive_fp.ckpt");
  AdaptiveConfig cfg;
  cfg.checkpoint = ckpt.string();
  std::size_t calls = 0;
  const auto replicate = [&calls](std::size_t i) {
    ++calls;
    return synthetic(i, 1.0);
  };
  AdaptiveRunner runner(cfg, two_specs());
  (void)runner.run_cell("cell", 7, 8, replicate);
  EXPECT_EQ(calls, 8u);
  // Same key, different config fingerprint: stale state must not be merged.
  const auto b = runner.run_cell("cell", 8, 8, replicate);
  EXPECT_EQ(calls, 16u);
  EXPECT_FALSE(b.outcome.resumed);
}

TEST(ConfigFingerprint, EveryResultChangingKnobChangesIt) {
  // A checkpoint cell written under `base` must never resume into a config
  // that differs in any knob that changes results — e.g. one written at
  // K = 4 into a K = 1 cell. Every leaf of the field table, changed alone.
  const ScenarioConfig base = tiny_config();
  const std::uint64_t fp = config_fingerprint(base);

  for (std::size_t i = 0;; ++i) {
    ScenarioConfig cfg = base;
    const auto leaf = harness_test::change_leaf(cfg, i);
    if (!leaf) break;
    EXPECT_NE(config_fingerprint(cfg), fp) << leaf->name << " does not reach the fingerprint";
  }
}

TEST(ConfigFingerprint, ValuesArePinned) {
  // Checkpoints written by an earlier build resume only while the
  // fingerprint of an unchanged config stays bit for bit the same.
  ScenarioConfig paper = paper_default_config(1);

  ScenarioConfig faults = paper_default_config(3);
  faults.fault.link_loss = 0.05;
  faults.fault.bank.lifecycle = true;
  faults.fault.bank.claim_loss = 0.1;
  faults.fault.bank.initiator_crash = 0.2;
  faults.fault.bank.forwarder_crash = 0.05;

  ScenarioConfig sharded = paper_default_config(7);
  sharded.engine_shards = 4;
  sharded.bank_partitions = 3;
  sharded.view_refresh = 600.0;

  EXPECT_EQ(config_fingerprint(paper), 0xfb72ef6c9bbedac4ULL);
  EXPECT_EQ(config_fingerprint(faults), 0x22ce2fefcb405b73ULL);
  EXPECT_EQ(config_fingerprint(sharded), 0x2b065bb1fa9bc616ULL);
}

TEST(AdaptiveRunner, AdaptiveStopsEarlyOnTightCell) {
  AdaptiveConfig cfg;
  cfg.adaptive = true;
  cfg.eps = 0.1;
  cfg.min_batch = 8;
  AdaptiveRunner runner(cfg, two_specs());
  // Tiny spread: the anytime interval closes far before the 400-cap; the
  // all-pass invariant record clears its 0.8 LCB in a few hundred trials.
  const auto cell = runner.run_cell("tight", 1, 400,
                                    [](std::size_t i) { return synthetic(i, 1e-3); });
  EXPECT_TRUE(cell.outcome.stopped_early);
  EXPECT_LT(cell.outcome.replicates_used, 400u);
  EXPECT_GT(cell.outcome.batches, 1u);
  EXPECT_NEAR(cell.metrics[0].mean(), 5.0, 0.01);
}

TEST(AdaptiveRunner, AdaptiveRespectsHardCapOnNoisyCell) {
  AdaptiveConfig cfg;
  cfg.adaptive = true;
  cfg.eps = 1e-9;  // unreachable target
  AdaptiveRunner runner(cfg, {{"value", MetricSpec::Kind::kMean, 0.0, false, 0.0}});
  const auto cell = runner.run_cell("noisy", 1, 32,
                                    [](std::size_t i) { return synthetic(i, 10.0); });
  EXPECT_EQ(cell.outcome.replicates_used, 32u);
  EXPECT_FALSE(cell.outcome.stopped_early);
}

TEST(AdaptiveRunner, SumColumnsAreExactAndNeverGateStopping) {
  AdaptiveConfig cfg;
  cfg.adaptive = true;
  cfg.eps = 100.0;  // would stop instantly if a kSum column could gate
  AdaptiveRunner runner(cfg, {{"count", MetricSpec::Kind::kSum, 0.0, false, 0.0}});
  const auto cell = runner.run_cell("sums", 1, 20, [](std::size_t i) {
    return std::vector<double>{static_cast<double>(i)};
  });
  EXPECT_EQ(cell.outcome.replicates_used, 20u);  // ran to the cap
  EXPECT_FALSE(cell.outcome.stopped_early);
  EXPECT_DOUBLE_EQ(cell.sums[0], 190.0);  // 0 + 1 + ... + 19, exactly
}

// The kill hook dies with std::_Exit(9) right after a checkpoint rename;
// the death test runs in a child process, so the parent survives to resume
// from the file the killed child left behind — the in-process
// kill-and-resume gate. "threadsafe" death tests re-execute the binary, so
// the child's process-wide save counter starts at zero whatever checkpoint
// tests ran before it in this process.
TEST(AdaptiveRunnerDeathTest, KilledRunResumesBitExactly) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const auto ckpt = temp_path("adaptive_kill.ckpt");
  AdaptiveConfig cfg;
  cfg.checkpoint = ckpt.string();
  cfg.min_batch = 4;
  const auto replicate = [](std::size_t i) { return synthetic(i, 1.0); };

  AdaptiveConfig killing = cfg;
  killing.kill_after_batches = 2;  // dies mid-cell: 4 + 8 of 24 replicates done
  EXPECT_EXIT(
      {
        AdaptiveRunner runner(killing, two_specs());
        const auto cell = runner.run_cell("cell", 7, 24, replicate);
        (void)cell;
      },
      ::testing::ExitedWithCode(9), "");
  ASSERT_TRUE(std::filesystem::exists(ckpt));

  AdaptiveRunner resumer(cfg, two_specs());
  const auto resumed = resumer.run_cell("cell", 7, 24, replicate);
  EXPECT_TRUE(resumed.outcome.resumed);
  EXPECT_EQ(resumed.outcome.replicates_used, 24u);

  AdaptiveRunner uninterrupted(AdaptiveConfig{}, two_specs());
  const auto clean = uninterrupted.run_cell("cell", 7, 24, replicate);
  expect_bits_eq(clean.metrics[0], resumed.metrics[0]);
  expect_bits_eq(clean.metrics[1], resumed.metrics[1]);
}

// ---------------------------------------------------------------------------
// Scenario-level wrapper: run_replicated_adaptive.
// ---------------------------------------------------------------------------

TEST(RunReplicatedAdaptive, OffModeIsBitwiseIdenticalToRunReplicated) {
  const ReplicatedResult fixed = run_replicated(tiny_config(), 3);
  const AdaptiveReplicatedResult wrapped =
      run_replicated_adaptive(tiny_config(), 3, AdaptiveConfig{}, {});
  expect_bits_eq(fixed, wrapped.result);
  EXPECT_EQ(wrapped.outcome.replicates_used, 3u);
  EXPECT_FALSE(wrapped.outcome.stopped_early);
  EXPECT_TRUE(wrapped.outcome.complete);
}

TEST(RunReplicatedAdaptive, TrackedIntervalsComeBackInOrder) {
  const std::vector<TrackedScenarioMetric> tracked = {
      {"delivery_ratio", &ReplicatedResult::delivery_ratio, 0.0, false},
      {"forwarder_set_size", &ReplicatedResult::forwarder_set_size, 0.0, true},
  };
  const AdaptiveReplicatedResult r =
      run_replicated_adaptive(tiny_config(), 3, AdaptiveConfig{}, tracked);
  ASSERT_EQ(r.intervals.size(), 2u);
  EXPECT_DOUBLE_EQ(r.intervals[0].mean, r.result.delivery_ratio.mean());
  EXPECT_DOUBLE_EQ(r.intervals[1].mean, r.result.forwarder_set_size.mean());
}

TEST(RunReplicatedAdaptiveDeathTest, KilledSweepResumesBitExactly) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const auto ckpt = temp_path("replicate_kill.ckpt");
  AdaptiveConfig cfg;
  cfg.checkpoint = ckpt.string();
  cfg.min_batch = 2;
  // Message and bank faults, so the transport and settlement totals that
  // cross the checkpoint are nonzero.
  ScenarioConfig faulty = tiny_config();
  faulty.fault.link_loss = 0.05;
  faulty.fault.bank.claim_loss = 0.2;

  AdaptiveConfig killing = cfg;
  killing.kill_after_batches = 1;  // dies after 2 of 4 replicates
  EXPECT_EXIT(
      {
        const auto r = run_replicated_adaptive(faulty, 4, killing, {});
        (void)r;
      },
      ::testing::ExitedWithCode(9), "");
  ASSERT_TRUE(std::filesystem::exists(ckpt));

  const AdaptiveReplicatedResult resumed = run_replicated_adaptive(faulty, 4, cfg, {});
  EXPECT_TRUE(resumed.outcome.resumed);
  EXPECT_EQ(resumed.outcome.replicates_used, 4u);

  const ReplicatedResult clean = run_replicated(faulty, 4);
  EXPECT_GT(clean.total_transport_frames_sent, 0u);
  EXPECT_GT(clean.total_claims_lost, 0u);
  expect_bits_eq(clean, resumed.result);
}

TEST(RunReplicatedAdaptive, HostileCheckpointRecordRestartsTheCell) {
  // The file digest proves a checkpoint is whole, not honest: anyone can
  // recompute it. A sample list claiming more samples than it holds, or a
  // curve of the wrong length, must restart the cell — never size an
  // allocation from the stored count.
  const ReplicatedResult clean = run_replicated(tiny_config(), 4);
  const std::vector<std::pair<std::string, std::string>> hostile = {
      {"r.cell.pooled_good", "ffffffffffffffff"},
      {"r.cell.nef.count", "0000ffffffffffff"},
  };
  for (const auto& [key, value] : hostile) {
    SCOPED_TRACE(key);
    const auto ckpt = temp_path("hostile.ckpt");
    AdaptiveConfig cfg;
    cfg.checkpoint = ckpt.string();
    (void)run_replicated_adaptive(tiny_config(), 4, cfg, {});
    auto stored = Checkpoint::load(ckpt);
    ASSERT_TRUE(stored.has_value());
    ASSERT_NE(stored->find(key), nullptr);
    stored->set(key, value);
    ASSERT_TRUE(stored->save(ckpt));

    const AdaptiveReplicatedResult resumed =
        run_replicated_adaptive(tiny_config(), 4, cfg, {});
    EXPECT_FALSE(resumed.outcome.resumed);
    expect_bits_eq(clean, resumed.result);
  }
}

// ---------------------------------------------------------------------------
// Checkpoint codec.
// ---------------------------------------------------------------------------

TEST(CheckpointCodec, DoubleEncodingIsBitExact) {
  for (const double x : {0.0, -0.0, 1.0 / 3.0, 1e-308, -1e308,
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::denorm_min()}) {
    const auto back = decode_double(encode_double(x));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*back), std::bit_cast<std::uint64_t>(x));
  }
  EXPECT_FALSE(decode_double("not-hex").has_value());
  EXPECT_FALSE(decode_u64("xyz").has_value());
}

TEST(CheckpointCodec, SaveLoadRoundTrip) {
  const auto path = temp_path("roundtrip.ckpt");
  Checkpoint ck;
  ck.set("a.x", encode_double(-0.0));
  ck.set("a.y", "plain");
  ck.set("b.z", encode_u64(0xdeadbeefULL));
  ck.set("a.x", encode_double(2.5));  // overwrite keeps one record
  ASSERT_TRUE(ck.save(path));

  const auto loaded = Checkpoint::load(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_NE(loaded->find("a.x"), nullptr);
  EXPECT_EQ(decode_double(*loaded->find("a.x")), 2.5);
  EXPECT_EQ(*loaded->find("a.y"), "plain");
  EXPECT_EQ(decode_u64(*loaded->find("b.z")), 0xdeadbeefULL);
  EXPECT_EQ(loaded->find("missing"), nullptr);
}

TEST(CheckpointCodec, ErasePrefixDropsOnlyThatCell) {
  Checkpoint ck;
  ck.set("a.x", "1");
  ck.set("a.y", "2");
  ck.set("b.x", "3");
  ck.erase_prefix("a.");
  EXPECT_EQ(ck.find("a.x"), nullptr);
  EXPECT_EQ(ck.find("a.y"), nullptr);
  ASSERT_NE(ck.find("b.x"), nullptr);
  EXPECT_EQ(*ck.find("b.x"), "3");
}

TEST(CheckpointCodec, CorruptOrTruncatedFilesBehaveLikeNoCheckpoint) {
  const auto path = temp_path("corrupt.ckpt");
  Checkpoint ck;
  ck.set("a.x", "value");
  ck.set("a.y", encode_u64(42));
  ASSERT_TRUE(ck.save(path));

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(bytes.empty());

  // Flip one payload byte: the whole-file digest must reject it.
  std::string flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x01;
  ASSERT_TRUE(atomic_write_file(path, flipped));
  EXPECT_FALSE(Checkpoint::load(path).has_value());

  // A torn write (file cut mid-record) is equally rejected.
  ASSERT_TRUE(atomic_write_file(path, bytes.substr(0, bytes.size() / 2)));
  EXPECT_FALSE(Checkpoint::load(path).has_value());

  // Trailing garbage after the digest line is rejected too.
  ASSERT_TRUE(atomic_write_file(path, bytes + "trailing junk\n"));
  EXPECT_FALSE(Checkpoint::load(path).has_value());

  EXPECT_FALSE(Checkpoint::load(temp_path("never_written.ckpt")).has_value());
}

TEST(AtomicWrite, ReplacesContentAndLeavesNoTempBehind) {
  const auto path = temp_path("atomic.txt");
  ASSERT_TRUE(atomic_write_file(path, "first"));
  ASSERT_TRUE(atomic_write_file(path, "second"));
  std::ifstream in(path, std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  EXPECT_EQ(bytes, "second");
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
}
