// Forwarding receipts.
//
// When the responder's confirmation travels the reverse path (paper §2.2),
// every forwarder appends path information. We realise that information as a
// MAC'd receipt per (connection, hop): the forwarder states its predecessor
// and successor for connection `conn_index` of connection-set `pair`, and
// authenticates the statement with the MAC key it registered at the bank.
// The initiator uses the receipt chain to recreate and validate the path;
// the bank uses the MACs at settlement to verify forwarder claims. Receipts
// never mention the initiator.
//
// A receipt is bound to one settlement by its nonce: the pair id plus the
// set's sequence number under that pair, fixed before the set's receipts
// are made. A pair that re-forms its set settles each set under its own
// sequence, so an honest hop repeated by a later set is a different receipt
// with a different MAC, and a receipt of one set is refused by every other
// set's settlement (DESIGN.md §3.9).
#pragma once

#include <array>
#include <cstdint>

#include "net/ids.hpp"
#include "payment/crypto.hpp"

namespace p2panon::payment {

/// A settlement nonce: the pair id in the low 32 bits, the set's sequence
/// number under that pair in the high 32. Sequence 0 — a pair's first set —
/// gives a nonce equal to the pair id.
using SettlementNonce = crypto::u64;

[[nodiscard]] constexpr SettlementNonce settlement_nonce(net::PairId pair,
                                                         std::uint32_t set_seq = 0) noexcept {
  return static_cast<crypto::u64>(pair) | static_cast<crypto::u64>(set_seq) << 32;
}

struct ForwardReceipt {
  net::PairId pair = net::kInvalidPair;  ///< connection-set id (cid family)
  std::uint32_t set_seq = 0;             ///< the set's sequence under `pair`
  std::uint32_t conn_index = 0;          ///< which pi^j in the set
  net::NodeId forwarder = net::kInvalidNode;
  net::NodeId predecessor = net::kInvalidNode;
  net::NodeId successor = net::kInvalidNode;
  crypto::u64 mac = 0;

  [[nodiscard]] constexpr SettlementNonce nonce() const noexcept {
    return settlement_nonce(pair, set_seq);
  }
  friend bool operator==(const ForwardReceipt&, const ForwardReceipt&) = default;
};

/// The canonical field enumeration of a receipt — THE single serialization
/// site. The MAC below, the sharded settlement plane's aggregate MAC
/// (sharded_settlement.cpp), and the transport wire codec
/// (transport/wire_codec.cpp) all walk the receipt through this one list,
/// so the wire format, the MAC input, and the in-memory struct cannot
/// drift: adding a field here changes all three in lockstep. The words are
/// the settlement nonce (pair and set sequence), conn_index, forwarder,
/// predecessor and successor.
inline constexpr std::size_t kReceiptWordCount = 5;

[[nodiscard]] constexpr std::array<crypto::u64, kReceiptWordCount> receipt_words(
    const ForwardReceipt& r) noexcept {
  return {r.nonce(), static_cast<crypto::u64>(r.conn_index),
          static_cast<crypto::u64>(r.forwarder), static_cast<crypto::u64>(r.predecessor),
          static_cast<crypto::u64>(r.successor)};
}

/// Inverse of receipt_words(): rebuild the receipt from its canonical word
/// list (plus the MAC, which rides alongside rather than inside the list).
[[nodiscard]] constexpr ForwardReceipt receipt_from_words(
    const std::array<crypto::u64, kReceiptWordCount>& w, crypto::u64 mac) noexcept {
  ForwardReceipt r;
  r.pair = static_cast<net::PairId>(w[0]);
  r.set_seq = static_cast<std::uint32_t>(w[0] >> 32);
  r.conn_index = static_cast<std::uint32_t>(w[1]);
  r.forwarder = static_cast<net::NodeId>(w[2]);
  r.predecessor = static_cast<net::NodeId>(w[3]);
  r.successor = static_cast<net::NodeId>(w[4]);
  r.mac = mac;
  return r;
}

/// MAC over all receipt words under the forwarder's registered key: five
/// keyed mix64 steps.
[[nodiscard]] constexpr crypto::u64 receipt_mac(crypto::u64 key,
                                                const ForwardReceipt& r) noexcept {
  const auto words = receipt_words(r);
  return crypto::mac(key, std::span<const crypto::u64>{words});
}

/// A sealed receipt for set `set_seq` of `pair`; the default is the pair's
/// first set, the nonce SettlementEngine::open records by default.
[[nodiscard]] constexpr ForwardReceipt make_receipt(crypto::u64 key, net::PairId pair,
                                                    std::uint32_t conn_index,
                                                    net::NodeId forwarder,
                                                    net::NodeId predecessor,
                                                    net::NodeId successor,
                                                    std::uint32_t set_seq = 0) noexcept {
  ForwardReceipt r{pair, set_seq, conn_index, forwarder, predecessor, successor, 0};
  r.mac = receipt_mac(key, r);
  return r;
}

}  // namespace p2panon::payment
