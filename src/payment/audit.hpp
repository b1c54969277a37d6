// Append-only audit journal for the bank.
//
// Every balance-moving operation is journaled; replaying the journal from
// zero must reconstruct the bank's exact account/escrow balances and the
// outstanding coin value. Replay is the core of the C4 check in
// payment::audit_settlements (settlement.hpp), and models the auditability
// a real payment processor for an anonymity network would need: the
// journal contains amounts and account ids but no coin serials for
// withdrawals (the bank never sees them — unlinkability is preserved even
// against its own log).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "payment/money.hpp"

namespace p2panon::payment {

using AccountId = std::uint32_t;  // forward-compatible with bank.hpp
using EscrowId = std::uint32_t;

enum class TxKind : std::uint8_t {
  kOpenAccount,   ///< account created with an initial balance
  kWithdraw,      ///< blind withdrawal: account -> outstanding coins
  kDeposit,       ///< coin deposit: outstanding coins -> account
  kEscrowFund,    ///< coins -> escrow
  kEscrowPay,     ///< escrow -> account (verified settlement claim)
  kEscrowRefund,  ///< escrow -> account (unclaimed remainder / expiry refund)
};

struct Transaction {
  std::uint64_t seq = 0;
  TxKind kind = TxKind::kOpenAccount;
  AccountId account = 0;  ///< destination/source account (kind-dependent)
  EscrowId escrow = 0;    ///< escrow involved (escrow kinds only)
  Amount amount = 0;
};

/// Balances reconstructed by replaying a journal.
struct ReplayState {
  std::vector<Amount> accounts;
  std::vector<Amount> escrows;
  Amount outstanding = 0;

  [[nodiscard]] Amount total() const noexcept;
};

class AuditLog {
 public:
  void record(TxKind kind, AccountId account, EscrowId escrow, Amount amount);

  [[nodiscard]] std::size_t size() const noexcept { return log_.size(); }
  [[nodiscard]] const std::vector<Transaction>& transactions() const noexcept { return log_; }

  /// Replay the journal from an empty bank. Fails (returns false) on any
  /// structurally impossible entry: negative amounts, overdrafts, payments
  /// from unfunded escrows, deposits exceeding outstanding coin value.
  [[nodiscard]] bool replay(ReplayState& out) const;

  /// Render a human-readable statement.
  void print(std::ostream& os) const;

 private:
  std::vector<Transaction> log_;
};

}  // namespace p2panon::payment
