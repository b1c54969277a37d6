// Multi-process chaos driver payload: the paper's session/settlement
// protocol over real loopback TCP, with faults injected by the OS (SIGKILL)
// instead of FaultInjector. tools/transport/run_chaos.py spawns one bank
// process and N node processes from this binary, kills forwarders and the
// bank mid-protocol, and asserts the PR 5 C1-C5 milli-credit conservation
// invariants against the bank's reconciled journal.
//
// Roles:
//   --role bank --journal PATH [--resume] [--port P] [--seed S] [--report PATH]
//     Owns the payment::Bank + SettlementEngine + AuditLog. Every mutating
//     request frame (Hello / OpenSettlement / Claim / Close) is appended
//     hex-encoded to the journal and flushed BEFORE it is applied
//     (write-ahead), so a SIGKILL at any instant loses at most a request
//     whose reply never left — and the peer's retry is idempotent (accounts
//     are looked up before opened, settlements are keyed by pair, claims
//     dedupe, close is first-wins). --resume replays the journal through
//     the same dispatch path against a freshly seeded bank, rebuilding the
//     exact pre-kill state: the bank is a pure function of (seed, ordered
//     mutating frames).
//   --role node --id N --bank P --seed S --sessions K
//     Prints "PORT <p>", then reads one "PEERS id:port ..." line on stdin.
//     Runs K initiator sessions (path setup hop-by-hop through forwarder
//     peers, settlement open, receipt contracts, forwarder claims, close)
//     while serving as forwarder/responder for everyone else on the same
//     single-threaded re-entrant pump. A setup that dies (SIGKILLed
//     forwarder) re-forms the path with fresh peers and prints "REFORM".
//     --sessions 0 is the serve-only shape the driver uses for restarted
//     forwarders.
//   --role sweep --bank P
//     Asks the bank to terminalise every open settlement and write the
//     reconciliation report (SweepMsg), then exits.
//
// Invariants reported by the bank's sweep, computed by
// payment::audit_settlements (see DESIGN.md 3.9):
//   C1 bank money + outstanding coins unchanged end to end;
//   C2 every settlement terminal, none left Open/Claiming;
//   C3 escrow in == payouts + refunds, exact milli-credits, per settlement;
//   C4 audit-journal replay rebuilds the final bank state and per-account
//      escrow payouts match the settlement reports (double-pay detector);
//   C5 claims racing past a terminal settlement were refused, and expired
//      settlements refunded everything they took in.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/suspicion.hpp"
#include "payment/audit.hpp"
#include "payment/bank.hpp"
#include "payment/settlement.hpp"
#include "sim/rng.hpp"
#include "transport/tcp_transport.hpp"
#include "transport/wire_codec.hpp"

using namespace p2panon;
using namespace p2panon::transport;

namespace {

constexpr payment::Amount kInitialBalanceMilli = 10'000'000;  // 10k credits
constexpr payment::Amount kForwardingBenefitMilli = 50'000;   // P_f = 50
constexpr payment::Amount kRoutingBenefitMilli = 100'000;     // P_r = 100
constexpr double kSettlementDeadline = 1.0;  ///< logical; any sweep time > this

struct Options {
  std::string role;
  std::string journal;
  std::string report = "transport_chaos_report.json";
  bool resume = false;
  std::uint16_t port = 0;       ///< bank: fixed listen port on respawn
  std::uint16_t bank_port = 0;  ///< node/sweep: where the bank listens
  std::uint32_t id = 0;
  std::uint64_t seed = 42;
  std::uint32_t sessions = 0;
  std::uint32_t session_base = 0;  ///< respawned nodes: fresh pair-id range
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--role") o.role = next();
    else if (a == "--journal") o.journal = next();
    else if (a == "--report") o.report = next();
    else if (a == "--resume") o.resume = true;
    else if (a == "--port") o.port = static_cast<std::uint16_t>(std::stoul(next()));
    else if (a == "--bank") o.bank_port = static_cast<std::uint16_t>(std::stoul(next()));
    else if (a == "--id") o.id = static_cast<std::uint32_t>(std::stoul(next()));
    else if (a == "--seed") o.seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (a == "--sessions") o.sessions = static_cast<std::uint32_t>(std::stoul(next()));
    else if (a == "--session-base")
      o.session_base = static_cast<std::uint32_t>(std::stoul(next()));
  }
  return o;
}

std::string hex_encode(const std::vector<std::byte>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  s.reserve(bytes.size() * 2);
  for (const std::byte b : bytes) {
    s.push_back(digits[static_cast<unsigned>(b) >> 4]);
    s.push_back(digits[static_cast<unsigned>(b) & 0xF]);
  }
  return s;
}

std::vector<std::byte> hex_decode(const std::string& s) {
  auto nibble = [](char c) -> unsigned {
    if (c >= '0' && c <= '9') return static_cast<unsigned>(c - '0');
    return static_cast<unsigned>(c - 'a') + 10;
  };
  std::vector<std::byte> bytes(s.size() / 2);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::byte>((nibble(s[2 * i]) << 4) | nibble(s[2 * i + 1]));
  }
  return bytes;
}

// --- Bank role --------------------------------------------------------------

class BankProcess {
 public:
  explicit BankProcess(const Options& opt)
      : opt_(opt),
        bank_(sim::rng::Stream(opt.seed).child("bank", 0)),
        engine_(bank_),
        key_stream_(sim::rng::Stream(opt.seed).child("mac-keys", 0)),
        transport_(TcpConfig{}, sim::rng::Stream(opt.seed).child("tcp", 0)) {
    bank_.attach_audit(&audit_);
  }

  int run() {
    if (opt_.resume) replay_journal();
    journal_out_.open(opt_.journal, std::ios::app);
    if (!journal_out_) {
      std::cerr << "bank: cannot open journal " << opt_.journal << "\n";
      return 1;
    }
    const std::uint16_t port = transport_.listen(opt_.port);
    if (port == 0) {
      std::cerr << "bank: listen failed\n";
      return 1;
    }
    transport_.set_handler(
        [this](const wire::WireMessage& m) { return handle(m, /*replay=*/false); });
    std::cout << "PORT " << port << "\n" << std::flush;
    for (;;) {
      transport_.pump(0.05);
      if (sweep_done_) break;
      if (stdin_closed()) break;  // driver went away: exit instead of leaking
    }
    transport_.shutdown();
    return 0;
  }

 private:
  /// One dispatch path for live traffic AND journal replay: a replayed
  /// frame must traverse exactly the code a live one did.
  std::optional<wire::WireMessage> handle(const wire::WireMessage& m, bool replay) {
    if (const auto* hello = std::get_if<wire::HelloMsg>(&m)) {
      if (!replay) journal_frame(m);
      payment::AccountId acct = bank_.account_of(hello->node);
      if (acct == payment::kInvalidAccount) {
        // The bank issues the MAC key: a restarted node re-learns the same
        // key from the same reply, so its receipts keep verifying.
        const payment::crypto::u64 key = key_stream_.child("node", hello->node).next_u64();
        acct = bank_.open_account(hello->node, kInitialBalanceMilli, key);
        money_minted_ += kInitialBalanceMilli;
      }
      return wire::HelloReplyMsg{acct, bank_.account_mac_key(acct), bank_.balance(acct)};
    }
    if (const auto* open = std::get_if<wire::OpenSettlementMsg>(&m)) {
      const auto it = sid_by_pair_.find(open->pair);
      if (it != sid_by_pair_.end()) {  // retried request: first open won
        return wire::OpenReplyMsg{1, it->second};
      }
      // A hostile or half-initialised peer must not crash the bank (nor
      // poison the journal with a frame that crashes every resume).
      if (open->initiator_account >= bank_.account_count() || open->escrow_milli <= 0) {
        return wire::OpenReplyMsg{0, 0};
      }
      if (!replay) journal_frame(m);
      payment::Wallet wallet(bank_, open->initiator_account,
                             sim::rng::Stream(opt_.seed).child("wallet", open->pair));
      const auto coins = wallet.withdraw(open->escrow_milli);
      if (!coins) return wire::OpenReplyMsg{0, 0};
      const auto escrow = bank_.open_escrow(*coins);
      if (!escrow) return wire::OpenReplyMsg{0, 0};
      const payment::SettlementId sid = engine_.open(
          open->pair, *escrow,
          payment::SettlementTerms{open->forwarding_benefit_milli,
                                   open->routing_benefit_milli},
          open->records, open->initiator_account, kSettlementDeadline);
      sid_by_pair_.emplace(open->pair, sid);
      return wire::OpenReplyMsg{1, sid};
    }
    if (const auto* claim = std::get_if<wire::ClaimMsg>(&m)) {
      if (claim->claimant >= bank_.account_count()) {  // see OpenSettlement guard
        return wire::ClaimReplyMsg{
            static_cast<std::uint8_t>(payment::ClaimResult::kWrongClaimant)};
      }
      if (!replay) journal_frame(m);
      const payment::ClaimResult r =
          engine_.submit_claim(claim->sid, claim->claimant, claim->receipt);
      return wire::ClaimReplyMsg{static_cast<std::uint8_t>(r)};
    }
    if (const auto* close = std::get_if<wire::CloseMsg>(&m)) {
      if (close->sid >= engine_.settlement_count()) {  // engine close() throws
        return wire::CloseReplyMsg{0};
      }
      if (!replay) journal_frame(m);
      engine_.close(close->sid);
      return wire::CloseReplyMsg{1};
    }
    if (const auto* sweep = std::get_if<wire::SweepMsg>(&m)) {
      const std::size_t n = engine_.expire_due(kSettlementDeadline + 1.0);
      if (sweep->write_report != 0) {
        write_report();
        sweep_done_ = true;
      }
      return wire::SweepReplyMsg{static_cast<std::uint32_t>(n)};
    }
    return std::nullopt;
  }

  void journal_frame(const wire::WireMessage& m) {
    scratch_.clear();
    encode(m, scratch_);
    journal_out_ << hex_encode(scratch_) << "\n" << std::flush;
  }

  void replay_journal() {
    std::ifstream in(opt_.journal);
    std::string line;
    std::size_t replayed = 0;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const std::vector<std::byte> bytes = hex_decode(line);
      wire::WireMessage m;
      std::size_t consumed = 0;
      if (decode(bytes, m, consumed) != DecodeResult::kOk) continue;  // torn tail write
      (void)handle(m, /*replay=*/true);
      ++replayed;
    }
    std::cerr << "bank: resumed from " << replayed << " journaled frames\n";
  }

  void write_report() {
    // C1 counts every credit ever minted by an account opening.
    const payment::PartitionAudit a =
        payment::audit_settlements(bank_, audit_, engine_, money_minted_);
    std::ofstream out(opt_.report);
    out << std::boolalpha << "{\n"
        << "  \"c1_money_conserved\": " << a.conserved << ",\n"
        << "  \"c2_all_terminal\": " << a.all_terminal << ",\n"
        << "  \"c3_escrow_drained\": " << a.escrows_drained << ",\n"
        << "  \"c4_journal_reconciles\": " << (a.replay_ok && a.payouts_match) << ",\n"
        << "  \"c5_terminal_refused_and_expired_refunded\": " << a.expired_refunded << ",\n"
        << "  \"settlements\": " << sid_by_pair_.size() << ",\n"
        << "  \"closed\": " << a.closed << ",\n"
        << "  \"abandoned\": " << a.abandoned << ",\n"
        << "  \"expired\": " << a.expired << ",\n"
        << "  \"claims_accepted\": " << engine_.claims_accepted() << ",\n"
        << "  \"claims_rejected\": " << engine_.claims_rejected() << ",\n"
        << "  \"claims_after_terminal\": " << engine_.claims_after_terminal() << ",\n"
        << "  \"escrow_milli\": " << a.escrow_milli << ",\n"
        << "  \"paid_milli\": " << a.paid_milli << ",\n"
        << "  \"refunded_milli\": " << a.refunded_milli << ",\n"
        << "  \"frames_rejected\": " << transport_.counters().frames_rejected << "\n"
        << "}\n";
  }

  static bool stdin_closed() {
    pollfd p{STDIN_FILENO, POLLIN, 0};
    if (::poll(&p, 1, 0) <= 0) return false;
    if ((p.revents & POLLIN) != 0) {
      char buf[256];
      const ssize_t n = ::read(STDIN_FILENO, buf, sizeof(buf));
      return n == 0;  // lines from the driver are ignored; EOF means exit
    }
    return (p.revents & (POLLERR | POLLHUP)) != 0;
  }

  Options opt_;
  payment::AuditLog audit_;
  payment::Bank bank_;
  payment::SettlementEngine engine_;
  sim::rng::Stream key_stream_;
  TcpTransport transport_;
  std::ofstream journal_out_;
  std::vector<std::byte> scratch_;
  std::map<net::PairId, payment::SettlementId> sid_by_pair_;
  payment::Amount money_minted_ = 0;
  bool sweep_done_ = false;
};

// --- Node role --------------------------------------------------------------

class NodeProcess {
 public:
  /// Snappier than the defaults: a SIGKILLed forwarder must fail the setup
  /// cascade in well under a second so the initiator can re-form its path
  /// within the detection budget instead of riding a 10-attempt backoff.
  static TcpConfig node_config() {
    TcpConfig c;
    c.connect_backoff_base = 0.02;
    c.connect_backoff_cap = 0.2;
    c.connect_max_attempts = 4;
    c.read_deadline = 3.0;
    c.heartbeat_period = 0.2;
    c.heartbeat_timeout = 1.0;
    return c;
  }

  explicit NodeProcess(const Options& opt)
      : opt_(opt),
        rng_(sim::rng::Stream(opt.seed).child("node", opt.id)),
        transport_(node_config(), sim::rng::Stream(opt.seed).child("node-tcp", opt.id)) {}

  int run() {
    const std::uint16_t port = transport_.listen(opt_.port);
    if (port == 0) {
      std::cerr << "node " << opt_.id << ": listen failed\n";
      return 1;
    }
    std::cout << "PORT " << port << "\n" << std::flush;
    if (!read_peers()) return 1;
    // Heartbeat silence feeds the same SuspicionTracker the sim's async
    // setup uses: a SIGKILLed forwarder is never announced, so the only
    // evidence against it is behavioural, exactly as in the fault model.
    net::NodeId max_id = 0;
    for (const auto& [id, p] : peer_port_) max_id = std::max(max_id, id);
    suspicion_.emplace(max_id + 1);
    transport_.set_peer_dead([this](std::uint16_t dead_port) {
      for (const auto& [id, p] : peer_port_) {
        if (p == dead_port) {
          suspicion_->record_timeout(id);
          std::cout << "SUSPECT " << id << "\n" << std::flush;
        }
      }
    });
    // Hello BEFORE installing the handler: a respawned forwarder must not
    // serve ContractMsg (and claim) until it has re-learned its account.
    if (!hello()) return 1;
    transport_.set_handler([this](const wire::WireMessage& m) { return handle(m); });

    std::uint32_t done = 0;
    for (std::uint32_t s = opt_.session_base; s < opt_.session_base + opt_.sessions; ++s) {
      if (run_session(s)) {
        ++done;
        std::cout << "SESSION " << s << " ok\n" << std::flush;
      } else {
        std::cout << "SESSION " << s << " failed\n" << std::flush;
      }
      // Serve forwarder traffic between own sessions.
      for (int i = 0; i < 5; ++i) transport_.pump(0.01);
    }
    std::cout << "DONE sessions=" << done << "\n" << std::flush;

    // Keep serving until the driver closes stdin or says QUIT.
    for (;;) {
      transport_.pump(0.05);
      pollfd p{STDIN_FILENO, POLLIN, 0};
      if (::poll(&p, 1, 0) > 0) {
        char buf[256];
        const ssize_t n = ::read(STDIN_FILENO, buf, sizeof(buf));
        if (n <= 0 || std::memchr(buf, 'Q', static_cast<std::size_t>(n)) != nullptr) break;
      }
    }
    transport_.shutdown();  // graceful: Bye, not silence
    return 0;
  }

 private:
  bool read_peers() {
    std::string line;
    if (!std::getline(std::cin, line)) return false;
    std::istringstream in(line);
    std::string tag;
    in >> tag;  // "PEERS"
    std::string item;
    while (in >> item) {
      const std::size_t colon = item.find(':');
      if (colon == std::string::npos) continue;
      const auto id = static_cast<std::uint32_t>(std::stoul(item.substr(0, colon)));
      const auto p = static_cast<std::uint16_t>(std::stoul(item.substr(colon + 1)));
      peer_port_[id] = p;
    }
    return !peer_port_.empty();
  }

  /// request() with retry: the bank (or a forwarder) may be dead right now
  /// and respawned by the driver a moment later on the same port.
  std::optional<wire::WireMessage> request_retry(std::uint16_t peer,
                                                 const wire::WireMessage& msg, int attempts) {
    for (int i = 0; i < attempts; ++i) {
      auto reply = transport_.request(peer, msg);
      if (reply) return reply;
      transport_.pump(0.1);
    }
    return std::nullopt;
  }

  bool hello() {
    const auto reply =
        request_retry(opt_.bank_port, wire::HelloMsg{opt_.id}, /*attempts=*/20);
    if (!reply) {
      std::cerr << "node " << opt_.id << ": bank unreachable\n";
      return false;
    }
    const auto* hr = std::get_if<wire::HelloReplyMsg>(&*reply);
    if (hr == nullptr) return false;
    account_ = hr->account;
    mac_key_ = hr->mac_key;
    return true;
  }

  std::optional<wire::WireMessage> handle(const wire::WireMessage& m) {
    if (const auto* setup = std::get_if<wire::SetupMsg>(&m)) {
      // Hop-by-hop cascade: forward to the next hop and ack only once the
      // downstream ack arrived, so the initiator's ack is end-to-end.
      if (setup->hop + 1 < setup->path.size()) {
        wire::SetupMsg next = *setup;
        next.hop = setup->hop + 1;
        const auto it = peer_port_.find(setup->path[next.hop]);
        if (it == peer_port_.end()) return std::nullopt;
        const auto ack = transport_.request(it->second, next);
        if (!ack || std::get_if<wire::SetupAckMsg>(&*ack) == nullptr) {
          return std::nullopt;  // downstream dead: no ack, initiator re-forms
        }
      }
      return wire::SetupAckMsg{setup->pair, setup->conn_index};
    }
    if (const auto* contract = std::get_if<wire::ContractMsg>(&m)) {
      // The initiator sent a receipt template; only this node can MAC it.
      payment::ForwardReceipt r = contract->receipt;
      r.mac = payment::receipt_mac(mac_key_, r);
      const auto reply = request_retry(contract->bank_port,
                                       wire::ClaimMsg{contract->sid, account_, r},
                                       /*attempts=*/10);
      if (reply) ++claims_submitted_;
      return wire::ContractAckMsg{contract->sid};
    }
    if (const auto* data = std::get_if<wire::DataMsg>(&m)) {
      wire::DataMsg echo = *data;
      echo.echo = 1;
      return echo;
    }
    return std::nullopt;
  }

  bool run_session(std::uint32_t s) {
    sim::rng::Stream stream = rng_.child("session", s);
    const net::PairId pair = opt_.id * 100'000 + s;

    // Re-form the path until a setup survives: pick a responder and 1-3
    // forwarders among the live peers; any SIGKILLed hop fails the cascade
    // and the next attempt draws a fresh path.
    std::vector<net::NodeId> path;
    bool established = false;
    for (std::uint32_t attempt = 0; attempt < 6 && !established; ++attempt) {
      path = pick_path(stream.child("path", attempt));
      if (path.size() < 3) return false;  // not enough peers
      // Heartbeat-watch the chosen forwarders for the duration of the
      // setup: if one was SIGKILLed, silence (not a NACK) implicates it.
      for (std::size_t i = 1; i + 1 < path.size(); ++i) {
        transport_.watch(peer_port_.at(path[i]));
      }
      wire::SetupMsg setup{pair, 0, 1, path};
      const auto it = peer_port_.find(path[1]);
      std::optional<wire::WireMessage> ack;
      if (it != peer_port_.end()) ack = transport_.request(it->second, setup);
      established = ack && std::get_if<wire::SetupAckMsg>(&*ack) != nullptr;
      for (std::size_t i = 1; i + 1 < path.size(); ++i) {
        transport_.unwatch(peer_port_.at(path[i]));
        if (established) suspicion_->record_success(path[i]);  // ack vouches
      }
      if (!established) {
        // Same model as the sim's async setup: an ack timeout implicates
        // the hop's receiver (the first forwarder we handed the leg to).
        suspicion_->record_timeout(path[1]);
        std::cout << "SUSPECT " << path[1] << "\n" << std::flush;
        if (attempt + 1 < 6) {
          std::cout << "REFORM session=" << s << " attempt=" << attempt << "\n"
                    << std::flush;
        }
      }
    }
    if (!established) return false;

    // One end-to-end data ping to the responder.
    const auto rit = peer_port_.find(path.back());
    if (rit != peer_port_.end()) {
      (void)transport_.request(rit->second, wire::DataMsg{pair, 0, 0, 1, 0, 0});
    }

    // Open the settlement: one validated record for connection 0.
    const std::vector<net::NodeId> forwarders(path.begin() + 1, path.end() - 1);
    const payment::Amount escrow =
        kForwardingBenefitMilli * static_cast<payment::Amount>(forwarders.size()) +
        kRoutingBenefitMilli;
    wire::OpenSettlementMsg open{
        pair, account_, escrow, kForwardingBenefitMilli, kRoutingBenefitMilli,
        {payment::PathRecord{0, opt_.id, path.back(), forwarders}}};
    const auto opened = request_retry(opt_.bank_port, open, /*attempts=*/20);
    if (!opened) return false;
    const auto* reply = std::get_if<wire::OpenReplyMsg>(&*opened);
    if (reply == nullptr || reply->ok == 0) return false;
    const std::uint32_t sid = reply->sid;

    // Hand each forwarder its receipt template; it MACs and claims itself.
    for (std::size_t i = 0; i < forwarders.size(); ++i) {
      const net::NodeId fwd = forwarders[i];
      payment::ForwardReceipt tmpl;
      tmpl.pair = pair;
      tmpl.conn_index = 0;
      tmpl.forwarder = fwd;
      tmpl.predecessor = path[i];      // path[i] precedes path[i + 1] == fwd
      tmpl.successor = path[i + 2];
      const auto it = peer_port_.find(fwd);
      if (it == peer_port_.end()) continue;
      (void)request_retry(it->second, wire::ContractMsg{sid, opt_.bank_port, tmpl},
                          /*attempts=*/5);
    }

    // Most sessions close; every 7th "crashes" before closing, leaving the
    // settlement for the deadline sweep (abandon/expire paths).
    if (s % 7 == 6) return true;
    const auto closed =
        request_retry(opt_.bank_port, wire::CloseMsg{sid}, /*attempts=*/20);
    return closed.has_value();
  }

  std::vector<net::NodeId> pick_path(sim::rng::Stream stream) {
    std::vector<net::NodeId> others;
    for (const auto& [id, port] : peer_port_) {
      if (id != opt_.id) others.push_back(id);
    }
    if (others.size() < 2) return {};
    // Fisher-Yates prefix shuffle: first element the responder-to-be, the
    // next 1-3 the forwarders.
    for (std::size_t i = 0; i + 1 < others.size(); ++i) {
      const auto j = static_cast<std::size_t>(stream.uniform_int(
          static_cast<std::int64_t>(i), static_cast<std::int64_t>(others.size() - 1)));
      std::swap(others[i], others[j]);
    }
    // Suspicion steers re-formation: peers implicated by heartbeat silence
    // sink to the back, so a killed forwarder is avoided on the next draw.
    std::stable_partition(others.begin(), others.end(), [&](net::NodeId id) {
      return suspicion_->availability_factor(id) >= 0.5;
    });
    const auto want = static_cast<std::size_t>(stream.uniform_int(1, 3));
    const std::size_t n_fwd = std::min(want, others.size() - 1);
    std::vector<net::NodeId> path;
    path.push_back(opt_.id);
    for (std::size_t i = 0; i < n_fwd; ++i) path.push_back(others[1 + i]);
    path.push_back(others[0]);  // responder
    return path;
  }

  Options opt_;
  sim::rng::Stream rng_;
  TcpTransport transport_;
  std::optional<core::SuspicionTracker> suspicion_;
  std::map<net::NodeId, std::uint16_t> peer_port_;
  payment::AccountId account_ = payment::kInvalidAccount;
  payment::crypto::u64 mac_key_ = 0;
  std::uint64_t claims_submitted_ = 0;
};

// --- Sweep role -------------------------------------------------------------

int run_sweep(const Options& opt) {
  TcpTransport t(TcpConfig{}, sim::rng::Stream(opt.seed).child("sweep", 0));
  const auto reply = t.request(opt.bank_port, wire::SweepMsg{1});
  if (!reply) {
    std::cerr << "sweep: bank unreachable\n";
    return 1;
  }
  const auto* sr = std::get_if<wire::SweepReplyMsg>(&*reply);
  std::cout << "SWEPT " << (sr != nullptr ? sr->terminalised : 0) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  if (!TcpTransport::sockets_available()) {
    std::cerr << "sockets unavailable in this environment\n";
    return 77;  // conventional skip code
  }
  if (opt.role == "bank") return BankProcess(opt).run();
  if (opt.role == "node") return NodeProcess(opt).run();
  if (opt.role == "sweep") return run_sweep(opt);
  std::cerr << "usage: transport_chaos --role bank|node|sweep [options]\n";
  return 2;
}
