// Settlement verdict pin: seeded operation sequences against one
// SettlementEngine. The sequences mix honest claims, hops of multiplicity 2
// (a node on several positions of one path with identical neighbours),
// replays within a settlement and under a sibling settlement of the same
// pair (each sibling is a later set sequence, so its nonce differs),
// stolen / forged / over-claimed / wrong-pair receipts, batched claims, and
// claims raced past close, abandon and the deadline sweep.
//
// Three checks run together:
//   * a small std::map reference model predicts every claim verdict, every
//     terminal outcome and every report (payouts included);
//   * the C1–C5 money audit runs after every operation. C2 and the
//     terminal-only half of C3 are expected open mid-run; C1, C4, C5 and
//     each report's escrow_in == paid + refunded must hold throughout;
//   * every verdict, every report field, the engine counters and every
//     settlement's nonce fold into one committed FNV-1a digest, so any
//     change in verdict, payout order or amount moves the pin.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "payment/settlement.hpp"
#include "payment/token.hpp"

using namespace p2panon::payment;
using p2panon::net::NodeId;
using p2panon::net::PairId;
namespace rng = p2panon::sim::rng;

namespace {

constexpr NodeId kNodes = 10;  // node n owns account n
constexpr std::size_t kOpsPerSeed = 300;
constexpr std::size_t kMaxSettlements = 24;

struct PairSpec {
  PairId id;
  NodeId initiator;
  NodeId responder;
};
constexpr std::array<PairSpec, 3> kPairs{{{21, 0, 9}, {22, 0, 8}, {23, 9, 0}}};

using Hop = std::tuple<std::uint32_t, NodeId, NodeId, NodeId>;

/// The reference model of one settlement.
struct ModelSettlement {
  std::size_t pair_index = 0;
  std::uint32_t set_seq = 0;  ///< earlier settlements of the same pair
  std::vector<PathRecord> records;
  std::vector<Hop> hops;  ///< every recorded hop in path order, repeats kept
  std::map<Hop, std::size_t> multiplicity;
  std::map<Hop, std::size_t> used;
  std::map<AccountId, std::size_t> instances;  ///< accepted, per claimant
  Amount p_f = 0;
  Amount p_r = 0;
  Amount committed = 0;
  std::size_t set_size = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  p2panon::sim::Time deadline = kNoSettlementDeadline;
  bool terminal = false;
  SettlementReport report;  ///< the first terminal report
};

struct Claim {
  SettlementId sid = 0;
  AccountId claimant = 0;
  ForwardReceipt receipt;
};

struct Digest {
  crypto::u64 h = crypto::kFnvInit;
  void operator()(crypto::u64 word) { h = crypto::digest_more(h, {&word, 1}); }
};

/// How often each verdict, outcome and corner case occurred, over all seeds:
/// the pin is only worth its digest if every case it claims to cover ran.
struct Coverage {
  std::map<ClaimResult, std::size_t> verdicts;
  std::map<SettlementState, std::size_t> outcomes;
  std::size_t multiplicity_two_accepts = 0;
  std::size_t swept = 0;
  std::size_t batches = 0;
};

class PinWorld {
 public:
  PinWorld(std::uint64_t seed, Digest& fold, Coverage& cover)
      : bank_(rng::Stream(seed).child("bank")), gen_(rng::Stream(seed).child("ops")),
        fold_(fold), cover_(cover) {
    bank_.attach_audit(&journal_);
    auto keys = rng::Stream(seed).child("keys");
    for (NodeId n = 0; n < kNodes; ++n) {
      bank_.open_account(n, from_credits(1.0e6), keys.next_u64());
    }
    initial_ = bank_.total_money() + bank_.outstanding_coin_value();
  }

  void run() {
    for (std::size_t op = 0; op < kOpsPerSeed; ++op) {
      now_ += gen_.uniform(0.0, 2.0);
      const std::uint64_t kind = model_.empty() ? 0 : gen_.below(100);
      fold_(kind);
      if (kind < 10) {
        open_one();
      } else if (kind < 38) {
        claim(honest(pick()));
      } else if (kind < 46) {
        replay(/*sibling=*/false);
      } else if (kind < 52) {
        replay(/*sibling=*/true);
      } else if (kind < 57) {
        Claim c = honest(pick());
        c.claimant = static_cast<AccountId>((c.receipt.forwarder + 1 + gen_.below(kNodes - 1)) %
                                            kNodes);
        claim(c);
      } else if (kind < 62) {
        Claim c = honest(pick());
        c.receipt.mac ^= crypto::u64{1} << gen_.below(64);
        claim(c);
      } else if (kind < 68) {
        claim(over_claim(pick()));
      } else if (kind < 72) {
        claim(wrong_pair(pick()));
      } else if (kind < 74) {
        Claim c = honest(pick());
        c.sid = static_cast<SettlementId>(engine_.settlement_count() + gen_.below(3));
        claim(c);
      } else if (kind < 82) {
        batch(pick());
      } else if (kind < 88) {
        const SettlementId sid = pick();
        expect_terminal(sid, engine_.close(sid), SettlementState::kClosed);
      } else if (kind < 92) {
        const SettlementId sid = pick();
        expect_terminal(sid, engine_.abandon(sid), abandon_outcome(model_[sid]));
      } else {
        sweep();
      }
      audit_mid_run();
    }
    finish();
  }

 private:
  SettlementId pick() { return static_cast<SettlementId>(gen_.below(model_.size())); }

  static SettlementState abandon_outcome(const ModelSettlement& m) {
    return m.instances.empty() ? SettlementState::kExpired : SettlementState::kAbandoned;
  }

  std::vector<PathRecord> random_records(const PairSpec& pair) {
    std::vector<PathRecord> records;
    const std::uint64_t conns = 1 + gen_.below(4);
    std::uint32_t conn = 0;
    for (std::uint64_t j = 0; j < conns; ++j) {
      conn += static_cast<std::uint32_t>(1 + gen_.below(2));  // skipped: a dead connection
      PathRecord rec{conn, pair.initiator, pair.responder, {}};
      const std::uint64_t shape = gen_.below(10);
      if (shape == 0) {
        // A direct connection: counted as completed, no forwarder.
      } else if (shape < 4) {
        // a b a b a: the hop (b, a, a) occurs twice on one path.
        const auto a = static_cast<NodeId>(1 + gen_.below(7));
        const auto b = static_cast<NodeId>(1 + (a + gen_.below(6)) % 7);
        rec.forwarders = {a, b, a, b, a};
      } else {
        const std::uint64_t len = 1 + gen_.below(5);
        for (std::uint64_t h = 0; h < len; ++h) {
          rec.forwarders.push_back(static_cast<NodeId>(1 + gen_.below(8)));
        }
      }
      records.push_back(std::move(rec));
    }
    return records;
  }

  void open_one() {
    if (model_.size() >= kMaxSettlements) {
      claim(honest(pick()));
      return;
    }
    ModelSettlement m;
    m.pair_index = static_cast<std::size_t>(gen_.below(kPairs.size()));
    const PairSpec& pair = kPairs[m.pair_index];
    const ModelSettlement* sibling = nullptr;
    for (const ModelSettlement& s : model_) {
      if (s.pair_index == m.pair_index) {
        sibling = &s;
        ++m.set_seq;
      }
    }
    // A re-formed set re-submits its sibling's records: every receipt of the
    // sibling is on this settlement's paths too.
    m.records = sibling != nullptr && gen_.bernoulli(0.4) ? sibling->records
                                                          : random_records(pair);

    std::size_t instances = 0;
    std::set<NodeId> distinct;
    std::set<std::uint32_t> conns;
    for (const PathRecord& rec : m.records) {
      conns.insert(rec.conn_index);
      NodeId pred = rec.entry;
      for (std::size_t i = 0; i < rec.forwarders.size(); ++i) {
        const NodeId fwd = rec.forwarders[i];
        const NodeId succ = i + 1 < rec.forwarders.size() ? rec.forwarders[i + 1] : rec.exit;
        const Hop hop{rec.conn_index, fwd, pred, succ};
        m.hops.push_back(hop);
        ++m.multiplicity[hop];
        distinct.insert(fwd);
        ++instances;
        pred = fwd;
      }
    }
    m.set_size = distinct.size();
    m.completed = conns.size();
    m.p_f = from_credits(1.0 + static_cast<double>(gen_.below(5)));
    m.p_r = from_credits(1.0 + static_cast<double>(gen_.below(7)));
    // Funded over every adopted path, dead connections included.
    m.committed = static_cast<Amount>(instances + gen_.below(3)) * m.p_f + m.p_r;
    m.deadline = gen_.bernoulli(0.5) ? now_ + gen_.uniform(1.0, 40.0) : kNoSettlementDeadline;

    Wallet wallet(bank_, pair.initiator, gen_.child("wallet", model_.size()));
    const auto coins = wallet.withdraw(m.committed);
    ASSERT_TRUE(coins.has_value());
    const auto escrow = bank_.open_escrow(*coins);
    ASSERT_TRUE(escrow.has_value());
    const AccountId refund = bank_.open_pseudonymous_account();
    const SettlementId sid = engine_.open(pair.id, *escrow, {m.p_f, m.p_r}, m.records, refund,
                                          m.deadline, m.set_seq);
    EXPECT_EQ(sid, model_.size());
    EXPECT_EQ(engine_.forwarder_set_size(sid), m.set_size);
    EXPECT_EQ(engine_.state(sid), SettlementState::kOpen);
    fold_(sid);
    fold_(engine_.forwarder_set_size(sid));
    model_.push_back(std::move(m));
  }

  /// A receipt for `hop` under `pair` and the set sequence of `sid`.
  Claim receipt_claim(SettlementId sid, PairId pair, const Hop& hop) {
    const auto& [conn, fwd, pred, succ] = hop;
    return Claim{sid, fwd,
                 make_receipt(bank_.account_mac_key(fwd), pair, conn, fwd, pred, succ,
                              model_[sid].set_seq)};
  }

  /// An honest receipt for a recorded hop of `sid` (an over-claim when the
  /// settlement recorded only direct connections).
  Claim honest(SettlementId sid) {
    const ModelSettlement& m = model_[sid];
    if (m.hops.empty()) return over_claim(sid);
    return receipt_claim(sid, kPairs[m.pair_index].id, m.hops[gen_.below(m.hops.size())]);
  }

  /// A correctly MAC'd receipt for an arbitrary hop, most likely absent
  /// from the records.
  Claim over_claim(SettlementId sid) {
    const auto fwd = static_cast<NodeId>(1 + gen_.below(8));
    const Hop hop{static_cast<std::uint32_t>(1 + gen_.below(8)), fwd,
                  static_cast<NodeId>(gen_.below(kNodes)), static_cast<NodeId>(gen_.below(kNodes))};
    return receipt_claim(sid, kPairs[model_[sid].pair_index].id, hop);
  }

  /// An honest hop of `sid`, validly MAC'd but for another pair's id.
  Claim wrong_pair(SettlementId sid) {
    const ModelSettlement& m = model_[sid];
    if (m.hops.empty()) return over_claim(sid);
    const std::size_t other = (m.pair_index + 1 + gen_.below(kPairs.size() - 1)) % kPairs.size();
    return receipt_claim(sid, kPairs[other].id, m.hops[gen_.below(m.hops.size())]);
  }

  /// Resubmit an earlier claim: to its own settlement, or (sibling) to
  /// another settlement of the same pair.
  void replay(bool sibling) {
    if (submitted_.empty()) {
      claim(honest(pick()));
      return;
    }
    Claim c = submitted_[gen_.below(submitted_.size())];
    if (sibling && c.sid < model_.size()) {
      std::vector<SettlementId> siblings;
      for (SettlementId s = 0; s < model_.size(); ++s) {
        if (s != c.sid && model_[s].pair_index == model_[c.sid].pair_index) siblings.push_back(s);
      }
      if (!siblings.empty()) c.sid = siblings[gen_.below(siblings.size())];
    }
    claim(c);
  }

  /// The model's verdict for `c`, applied to the model state.
  ClaimResult model_claim(const Claim& c) {
    if (c.sid >= model_.size()) return ClaimResult::kUnknownSettlement;
    ModelSettlement& m = model_[c.sid];
    const ClaimResult verdict = model_verdict(m, c);
    if (verdict == ClaimResult::kAccepted) {
      const Hop hop{c.receipt.conn_index, c.receipt.forwarder, c.receipt.predecessor,
                    c.receipt.successor};
      if (++m.used[hop] == 2) ++cover_.multiplicity_two_accepts;
      ++m.instances[c.claimant];
      ++accepted_;
    } else {
      ++m.rejected;
      ++rejected_;
      if (verdict == ClaimResult::kNotOpen) ++after_terminal_;
    }
    return verdict;
  }

  ClaimResult model_verdict(const ModelSettlement& m, const Claim& c) {
    if (m.terminal) return ClaimResult::kNotOpen;
    const PairId pair = kPairs[m.pair_index].id;
    const bool right_claimant = c.claimant == c.receipt.forwarder;
    const ForwardReceipt expect = make_receipt(
        bank_.account_mac_key(c.claimant), c.receipt.pair, c.receipt.conn_index,
        c.receipt.forwarder, c.receipt.predecessor, c.receipt.successor, c.receipt.set_seq);
    if (c.receipt.pair != pair || c.receipt.set_seq != m.set_seq) {
      // Only an authentic sibling-set receipt counts as a cross-settlement
      // replay.
      if (c.receipt.pair == pair && right_claimant && expect.mac == c.receipt.mac) {
        ++cross_replays_;
      }
      return ClaimResult::kUnknownSettlement;
    }
    if (!right_claimant) return ClaimResult::kWrongClaimant;
    if (expect.mac != c.receipt.mac) return ClaimResult::kBadMac;
    const Hop hop{c.receipt.conn_index, c.receipt.forwarder, c.receipt.predecessor,
                  c.receipt.successor};
    const auto valid = m.multiplicity.find(hop);
    if (valid == m.multiplicity.end()) return ClaimResult::kNotOnPath;
    const auto used = m.used.find(hop);
    if (used != m.used.end() && used->second >= valid->second) return ClaimResult::kDuplicate;
    return ClaimResult::kAccepted;
  }

  void claim(const Claim& c) {
    const ClaimResult expected = model_claim(c);
    const ClaimResult got = engine_.submit_claim(c.sid, c.claimant, c.receipt);
    EXPECT_EQ(static_cast<int>(got), static_cast<int>(expected))
        << "settlement " << c.sid << " claimant " << c.claimant << " conn "
        << c.receipt.conn_index << " hop (" << c.receipt.forwarder << ", "
        << c.receipt.predecessor << ", " << c.receipt.successor << ")";
    ++cover_.verdicts[got];
    fold_(static_cast<crypto::u64>(got));
    submitted_.push_back(c);
  }

  /// One claimant redeems every receipt it holds on `sid` in one batch,
  /// plus an in-batch replay and a forgery now and then.
  void batch(SettlementId sid) {
    const ModelSettlement& m = model_[sid];
    if (m.hops.empty()) {
      claim(over_claim(sid));
      return;
    }
    const PairId pair = kPairs[m.pair_index].id;
    const NodeId fwd = std::get<1>(m.hops[gen_.below(m.hops.size())]);
    std::vector<ForwardReceipt> receipts;
    for (const Hop& hop : m.hops) {
      if (std::get<1>(hop) == fwd) receipts.push_back(receipt_claim(sid, pair, hop).receipt);
    }
    if (gen_.bernoulli(0.5)) receipts.push_back(receipts.front());
    if (gen_.bernoulli(0.3)) {
      receipts.push_back(receipts.back());
      receipts.back().mac ^= 1;
    }
    SettlementEngine::ClaimBatchResult expected;
    for (const ForwardReceipt& r : receipts) {
      const ClaimResult v = model_claim(Claim{sid, fwd, r});
      ++cover_.verdicts[v];
      ++(v == ClaimResult::kAccepted ? expected.accepted : expected.rejected);
    }
    const auto got = engine_.submit_claim_batch(sid, fwd, receipts);
    EXPECT_EQ(got.accepted, expected.accepted);
    EXPECT_EQ(got.rejected, expected.rejected);
    ++cover_.batches;
    fold_(got.accepted);
    fold_(got.rejected);
  }

  void sweep() {
    now_ += gen_.uniform(0.0, 15.0);
    std::vector<std::pair<SettlementId, SettlementState>> due;
    for (SettlementId sid = 0; sid < model_.size(); ++sid) {
      const ModelSettlement& m = model_[sid];
      if (!m.terminal && m.deadline >= 0.0 && now_ >= m.deadline) {
        due.emplace_back(sid, abandon_outcome(m));
      }
    }
    const std::size_t swept = engine_.expire_due(now_);
    EXPECT_EQ(swept, due.size());
    fold_(swept);
    cover_.swept += swept;
    for (const auto& [sid, outcome] : due) {
      const SettlementReport* report = engine_.report(sid);
      ASSERT_NE(report, nullptr);
      expect_terminal(sid, *report, outcome);
    }
  }

  /// Check a terminal report against the model and fold it. A settlement
  /// the model already saw terminate must return its first report unchanged.
  void expect_terminal(SettlementId sid, const SettlementReport& report,
                       SettlementState outcome) {
    ModelSettlement& m = model_[sid];
    if (!m.terminal) {
      m.terminal = true;
      ++cover_.outcomes[outcome];
      std::vector<std::pair<AccountId, Amount>> payouts;
      const std::vector<Amount> shares = split_evenly(m.p_r, m.set_size);
      std::size_t share = 0;
      std::size_t claims = 0;
      Amount paid = 0;
      for (const auto& [acct, instances] : m.instances) {
        Amount due = static_cast<Amount>(instances) * m.p_f;
        if (share < shares.size()) due += shares[share++];
        payouts.emplace_back(acct, due);
        paid += due;
        claims += instances;
      }
      EXPECT_EQ(report.outcome, outcome);
      EXPECT_EQ(report.escrow_in, m.committed);
      EXPECT_EQ(report.paid_out, paid);
      EXPECT_EQ(report.refunded, m.committed - paid);
      EXPECT_EQ(report.accepted_claims, claims);
      EXPECT_EQ(report.rejected_claims, m.rejected);
      EXPECT_EQ(report.forwarder_set_size, m.set_size);
      EXPECT_EQ(report.completed_connections, m.completed);
      EXPECT_EQ(report.pro_rata, outcome == SettlementState::kAbandoned);
      EXPECT_EQ(report.payouts, payouts);
      m.report = report;
    } else {
      EXPECT_EQ(report.outcome, m.report.outcome) << "second terminal transition";
      EXPECT_EQ(report.paid_out, m.report.paid_out);
      EXPECT_EQ(report.refunded, m.report.refunded);
      EXPECT_EQ(report.payouts, m.report.payouts);
    }
    EXPECT_EQ(engine_.state(sid), report.outcome);
    fold_report(report);
  }

  void fold_report(const SettlementReport& r) {
    fold_(static_cast<crypto::u64>(r.escrow_in));
    fold_(static_cast<crypto::u64>(r.paid_out));
    fold_(static_cast<crypto::u64>(r.refunded));
    fold_(r.accepted_claims);
    fold_(r.rejected_claims);
    fold_(r.forwarder_set_size);
    fold_(static_cast<crypto::u64>(r.outcome));
    fold_(r.pro_rata ? 1 : 0);
    fold_(r.completed_connections);
    fold_(r.payouts.size());
    for (const auto& [acct, amount] : r.payouts) {
      fold_(acct);
      fold_(static_cast<crypto::u64>(amount));
    }
  }

  void audit_mid_run() {
    const PartitionAudit a = audit_settlements(bank_, journal_, engine_, initial_);
    EXPECT_TRUE(a.conserved) << "C1";
    EXPECT_TRUE(a.replay_ok) << "C4 replay";
    EXPECT_TRUE(a.payouts_match) << "C4 payouts";
    EXPECT_TRUE(a.expired_refunded) << "C5";
    for (SettlementId sid = 0; sid < engine_.settlement_count(); ++sid) {
      if (const SettlementReport* r = engine_.report(sid)) {
        EXPECT_EQ(r->escrow_in, r->paid_out + r->refunded) << "C3 settlement " << sid;
      }
    }
  }

  void finish() {
    for (SettlementId sid = 0; sid < model_.size(); ++sid) {
      if (!model_[sid].terminal) {
        expect_terminal(sid, engine_.close(sid), SettlementState::kClosed);
      }
    }
    EXPECT_EQ(engine_.open_settlements(), 0u);
    EXPECT_TRUE(audit_settlements(bank_, journal_, engine_, initial_).ok());

    for (SettlementId sid = 0; sid < engine_.settlement_count(); ++sid) {
      fold_report(*engine_.report(sid));
    }
    EXPECT_EQ(engine_.claims_accepted(), accepted_);
    EXPECT_EQ(engine_.claims_rejected(), rejected_);
    EXPECT_EQ(engine_.claims_after_terminal(), after_terminal_);
    EXPECT_EQ(engine_.cross_settlement_replays(), cross_replays_);
    fold_(engine_.claims_accepted());
    fold_(engine_.claims_rejected());
    fold_(engine_.claims_after_terminal());
    fold_(engine_.cross_settlement_replays());

    for (SettlementId sid = 0; sid < model_.size(); ++sid) {
      const ModelSettlement& m = model_[sid];
      EXPECT_EQ(engine_.nonce(sid), settlement_nonce(kPairs[m.pair_index].id, m.set_seq));
      fold_(engine_.nonce(sid));
    }
  }

  AuditLog journal_;
  Bank bank_;
  SettlementEngine engine_{bank_};
  rng::Stream gen_;
  Digest& fold_;
  Coverage& cover_;
  Amount initial_ = 0;
  p2panon::sim::Time now_ = 0.0;

  std::vector<ModelSettlement> model_;
  std::vector<Claim> submitted_;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t after_terminal_ = 0;
  std::uint64_t cross_replays_ = 0;
};

}  // namespace

TEST(SettlementPin, VerdictsReportsAndRedeemedDigestsArePinned) {
  Digest fold;
  Coverage cover;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) PinWorld(seed, fold, cover).run();

  // Every case the pin claims to cover ran at least once.
  for (ClaimResult v : {ClaimResult::kAccepted, ClaimResult::kBadMac,
                        ClaimResult::kWrongClaimant, ClaimResult::kNotOnPath,
                        ClaimResult::kDuplicate, ClaimResult::kUnknownSettlement,
                        ClaimResult::kNotOpen}) {
    EXPECT_GT(cover.verdicts[v], 0u) << "verdict " << static_cast<int>(v) << " never ran";
  }
  for (SettlementState s :
       {SettlementState::kClosed, SettlementState::kAbandoned, SettlementState::kExpired}) {
    EXPECT_GT(cover.outcomes[s], 0u) << "outcome " << static_cast<int>(s) << " never ran";
  }
  EXPECT_GT(cover.multiplicity_two_accepts, 0u);
  EXPECT_GT(cover.swept, 0u);
  EXPECT_GT(cover.batches, 0u);

  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(fold.h));
  EXPECT_STREQ(hex, "a6e9e705527adf7d");
}
