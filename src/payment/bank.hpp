// The central bank (paper §2.2): accounts, blind e-cash withdrawal,
// double-spend detection, and escrows that fund connection-set settlements.
//
// Anonymity property delivered: the bank learns which *accounts* are paid as
// forwarders (the paper only needs initiator anonymity — forwarder identity
// is visible to the path anyway), but it cannot link an escrow's funding
// coins to the initiator's account, because those coins were withdrawn
// blind. Forwarder receipts never contain the initiator's identity.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/ids.hpp"
#include "payment/audit.hpp"
#include "payment/crypto.hpp"
#include "payment/money.hpp"
#include "payment/token.hpp"
#include "sim/flat_hash.hpp"
#include "sim/rng.hpp"

namespace p2panon::payment {

inline constexpr AccountId kInvalidAccount = 0xFFFFFFFFu;

enum class DepositResult {
  kOk,
  kBadSignature,
  kUnknownDenomination,
  kDoubleSpend,
};

class Bank {
 public:
  explicit Bank(sim::rng::Stream stream);

  Bank(const Bank&) = delete;
  Bank& operator=(const Bank&) = delete;

  /// Open an account bound to a network identity. `mac_key` is the secret
  /// the node will use to MAC its forwarding receipts; the bank stores it to
  /// verify settlement claims. Returns the new account id.
  AccountId open_account(net::NodeId owner, Amount initial_balance, crypto::u64 mac_key);

  /// Open an unbound (pseudonymous) account, e.g. an initiator's refund
  /// destination.
  AccountId open_pseudonymous_account(Amount initial_balance = 0);

  [[nodiscard]] Amount balance(AccountId id) const;
  [[nodiscard]] std::size_t account_count() const noexcept { return accounts_.size(); }

  /// Account registered for a network identity; kInvalidAccount when none.
  [[nodiscard]] AccountId account_of(net::NodeId owner) const;

  /// Public key used for coins of this denomination (created on first use —
  /// deterministic given the bank's RNG stream and request order).
  [[nodiscard]] const crypto::RsaPublicKey& denomination_key(Amount denom);

  /// Blind withdrawal of one coin: debit `denom` from the account and sign
  /// the blinded message under the denomination key. Returns nullopt on
  /// insufficient funds. The bank never sees the coin serial.
  [[nodiscard]] std::optional<crypto::u64> withdraw_blind(AccountId id, Amount denom,
                                                          crypto::u64 blinded_message);

  /// Deposit a coin into an account. Marks the serial spent on success.
  DepositResult deposit_coin(AccountId id, const Coin& coin);

  /// Fund a new escrow with coins. All coins must verify and be unspent;
  /// on any bad coin the whole funding is rejected (and *no* coin is marked
  /// spent). Returns the escrow id on success.
  [[nodiscard]] std::optional<EscrowId> open_escrow(const std::vector<Coin>& funding);

  [[nodiscard]] Amount escrow_balance(EscrowId id) const;
  [[nodiscard]] std::size_t escrow_count() const noexcept { return escrows_.size(); }

  /// Transfer from escrow to an account. Fails (returns false) on
  /// insufficient escrow balance; balances are unchanged on failure.
  bool escrow_pay(EscrowId id, AccountId to, Amount amount);

  /// Same mechanics as escrow_pay, journaled as a refund (unclaimed
  /// remainder at close, or the full escrow on expiry) so the audit log can
  /// reconcile payouts against refunds per settlement outcome.
  bool escrow_refund(EscrowId id, AccountId to, Amount amount);

  /// MAC key registered for an account (bank-internal verification helper).
  [[nodiscard]] crypto::u64 account_mac_key(AccountId id) const {
    return accounts_.at(id).mac_key;
  }

  /// Network identity bound to an account; kInvalidNode for pseudonymous.
  [[nodiscard]] net::NodeId account_owner(AccountId id) const { return accounts_.at(id).owner; }

  /// Total money in existence (accounts + escrows). Conserved by every
  /// operation except withdraw (burns into coins) and deposit (re-mints);
  /// total_money() + outstanding_coin_value() is the true invariant.
  [[nodiscard]] Amount total_money() const;

  /// Value withdrawn into coins and not yet re-deposited or escrowed.
  [[nodiscard]] Amount outstanding_coin_value() const noexcept { return outstanding_; }

  /// Journal every balance-moving operation into `log` (not owned; nullptr
  /// detaches). The journal never sees coin serials, only amounts.
  void attach_audit(AuditLog* log) noexcept { audit_ = log; }

 private:
  void journal(TxKind kind, AccountId account, EscrowId escrow, Amount amount) {
    if (audit_ != nullptr) audit_->record(kind, account, escrow, amount);
  }

  struct Account {
    net::NodeId owner = net::kInvalidNode;
    Amount balance = 0;
    crypto::u64 mac_key = 0;
  };

  /// The denomination's key pair, generated on first use.
  [[nodiscard]] const crypto::RsaKeyPair& key_pair(Amount denom);

  /// A coin's spent-ledger key: its serial and denomination.
  [[nodiscard]] static sim::PackedKey spent_key(const Coin& c) noexcept {
    return sim::PackedKey{c.serial, static_cast<std::uint64_t>(c.denomination)};
  }

  sim::rng::Stream stream_;
  std::vector<Account> accounts_;
  std::unordered_map<net::NodeId, AccountId> by_owner_;
  std::map<Amount, crypto::RsaKeyPair> denom_keys_;
  /// Spent-coin ledger keyed by spent_key() (a set: the value is unused).
  sim::PackedFlatMap<bool> spent_;
  std::vector<Amount> escrows_;
  Amount outstanding_ = 0;
  AuditLog* audit_ = nullptr;
};

/// Client-side wallet: drives blind-withdrawal rounds against a bank and
/// assembles coins for arbitrary amounts.
class Wallet {
 public:
  Wallet(Bank& bank, AccountId account, sim::rng::Stream stream) noexcept
      : bank_(bank), account_(account), stream_(stream) {}

  [[nodiscard]] AccountId account() const noexcept { return account_; }

  /// Withdraw coins totalling exactly `total`. Returns nullopt (with no
  /// funds moved beyond successfully withdrawn coins being auto-redeposited)
  /// on insufficient balance.
  [[nodiscard]] std::optional<std::vector<Coin>> withdraw(Amount total);

 private:
  Bank& bank_;
  AccountId account_;
  sim::rng::Stream stream_;
};

}  // namespace p2panon::payment
