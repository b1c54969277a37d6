#include "payment/bank.hpp"

#include <cassert>

namespace p2panon::payment {

Bank::Bank(sim::rng::Stream stream) : stream_(stream) {}

AccountId Bank::open_account(net::NodeId owner, Amount initial_balance, crypto::u64 mac_key) {
  assert(initial_balance >= 0);
  assert(by_owner_.find(owner) == by_owner_.end() && "account already open for node");
  const auto id = static_cast<AccountId>(accounts_.size());
  accounts_.emplace_back(owner, initial_balance, mac_key);
  by_owner_.emplace(owner, id);
  journal(TxKind::kOpenAccount, id, 0, initial_balance);
  return id;
}

AccountId Bank::open_pseudonymous_account(Amount initial_balance) {
  assert(initial_balance >= 0);
  const auto id = static_cast<AccountId>(accounts_.size());
  accounts_.emplace_back(net::kInvalidNode, initial_balance, 0);
  journal(TxKind::kOpenAccount, id, 0, initial_balance);
  return id;
}

Amount Bank::balance(AccountId id) const { return accounts_.at(id).balance; }

AccountId Bank::account_of(net::NodeId owner) const {
  auto it = by_owner_.find(owner);
  return it == by_owner_.end() ? kInvalidAccount : it->second;
}

const crypto::RsaKeyPair& Bank::key_pair(Amount denom) {
  assert(denom > 0);
  auto it = denom_keys_.find(denom);
  if (it == denom_keys_.end()) {
    auto key_stream = stream_.child("denom-key", static_cast<crypto::u64>(denom));
    it = denom_keys_.emplace(denom, crypto::generate_keypair(key_stream)).first;
  }
  return it->second;
}

const crypto::RsaPublicKey& Bank::denomination_key(Amount denom) { return key_pair(denom).pub; }

std::optional<crypto::u64> Bank::withdraw_blind(AccountId id, Amount denom,
                                                crypto::u64 blinded_message) {
  Account& acct = accounts_.at(id);
  if (denom <= 0 || acct.balance < denom) return std::nullopt;
  const crypto::RsaKeyPair& kp = key_pair(denom);
  if (blinded_message >= kp.pub.n) return std::nullopt;
  acct.balance -= denom;
  outstanding_ += denom;
  journal(TxKind::kWithdraw, id, 0, denom);
  return crypto::rsa_sign(kp, blinded_message);
}

DepositResult Bank::deposit_coin(AccountId id, const Coin& coin) {
  auto it = denom_keys_.find(coin.denomination);
  if (it == denom_keys_.end()) return DepositResult::kUnknownDenomination;
  if (!coin.verify(it->second.pub)) return DepositResult::kBadSignature;
  if (!spent_.insert(spent_key(coin)).second) return DepositResult::kDoubleSpend;
  accounts_.at(id).balance += coin.denomination;
  outstanding_ -= coin.denomination;
  journal(TxKind::kDeposit, id, 0, coin.denomination);
  return DepositResult::kOk;
}

std::optional<EscrowId> Bank::open_escrow(const std::vector<Coin>& funding) {
  // Validate the whole batch before marking anything spent, so a rejected
  // funding attempt leaves every coin still spendable.
  Amount total = 0;
  for (const Coin& c : funding) {
    auto it = denom_keys_.find(c.denomination);
    if (it == denom_keys_.end()) return std::nullopt;
    if (!c.verify(it->second.pub)) return std::nullopt;
    if (spent_.contains(spent_key(c))) return std::nullopt;
    total += c.denomination;
  }
  // Reject duplicate coins within the batch itself.
  for (std::size_t i = 0; i < funding.size(); ++i) {
    for (std::size_t j = i + 1; j < funding.size(); ++j) {
      if (funding[i].serial == funding[j].serial &&
          funding[i].denomination == funding[j].denomination) {
        return std::nullopt;
      }
    }
  }
  for (const Coin& c : funding) spent_.insert(spent_key(c));
  outstanding_ -= total;
  const auto id = static_cast<EscrowId>(escrows_.size());
  escrows_.push_back(total);
  journal(TxKind::kEscrowFund, 0, id, total);
  return id;
}

Amount Bank::escrow_balance(EscrowId id) const { return escrows_.at(id); }

bool Bank::escrow_pay(EscrowId id, AccountId to, Amount amount) {
  assert(amount >= 0);
  Amount& bal = escrows_.at(id);
  if (bal < amount) return false;
  bal -= amount;
  accounts_.at(to).balance += amount;
  journal(TxKind::kEscrowPay, to, id, amount);
  return true;
}

bool Bank::escrow_refund(EscrowId id, AccountId to, Amount amount) {
  assert(amount >= 0);
  Amount& bal = escrows_.at(id);
  if (bal < amount) return false;
  bal -= amount;
  accounts_.at(to).balance += amount;
  journal(TxKind::kEscrowRefund, to, id, amount);
  return true;
}

Amount Bank::total_money() const {
  Amount total = 0;
  for (const Account& a : accounts_) total += a.balance;
  for (Amount e : escrows_) total += e;
  return total;
}

std::optional<std::vector<Coin>> Wallet::withdraw(Amount total) {
  assert(total >= 0);
  const std::vector<Amount> denoms = decompose_amount(total);
  std::vector<Coin> coins;
  coins.reserve(denoms.size());
  for (Amount denom : denoms) {
    const crypto::RsaPublicKey& key = bank_.denomination_key(denom);
    Coin c;
    c.denomination = denom;
    c.serial = stream_.next_u64();
    const crypto::u64 msg = c.message(key);
    const crypto::Blinding blinding = crypto::blind(key, msg, stream_);
    auto blind_sig = bank_.withdraw_blind(account_, denom, blinding.blinded_message);
    if (!blind_sig) {
      // Insufficient funds mid-withdrawal: redeposit what we already have so
      // the caller sees an atomic failure.
      for (const Coin& done : coins) {
        [[maybe_unused]] auto r = bank_.deposit_coin(account_, done);
        assert(r == DepositResult::kOk);
      }
      return std::nullopt;
    }
    c.signature = crypto::unblind(key, *blind_sig, blinding);
    assert(crypto::rsa_verify(key, msg, c.signature));  // c.verify(key), message reused
    coins.push_back(c);
  }
  return coins;
}

}  // namespace p2panon::payment
