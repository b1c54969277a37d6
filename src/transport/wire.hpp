// Wire messages of the transport plane.
//
// One message set serves both backends: SimTransport routes these through
// the discrete-event engine as values, and TcpTransport carries them
// between real processes as length-prefixed frames (wire_codec.hpp). The
// set covers the protocol's four planes:
//
//   * contract/setup — LegMsg/AckMsg/NackMsg (the in-sim hop legs of
//     AsyncConnectionRunner) and SetupMsg/SetupAckMsg (the multi-process
//     hop-by-hop path formation of examples/transport_chaos);
//   * data — DataMsg keepalives, forward and echo;
//   * claim/settlement — OpenSettlementMsg/ContractMsg/ClaimMsg/CloseMsg
//     and their replies, reusing payment::ForwardReceipt verbatim so the
//     claim a forwarder redeems is byte-for-byte the receipt the codec
//     framed (single serialization site, see receipt_words());
//   * liveness — HeartbeatMsg/HeartbeatAckMsg for dead-peer detection and
//     ByeMsg for graceful shutdown (the NACK analog: a peer that says Bye
//     is *gone*, not crashed — suspicion learns nothing from it).
//
// Each struct is the single source of its payload layout: `kType` is its
// frame type tag and the hidden friend `fields(m)` lists its fields in wire
// order, each written at the width of its declared type (integers
// little-endian, a ForwardReceipt as its receipt_words() plus the MAC, a
// list as a u32 count then its elements). The codec (wire_codec.cpp) walks
// that list in both directions, so adding a message means one struct here,
// one MsgType enumerator and one WireMessage alternative — no codec edit.
// Every list is declared with its decode bound (bounded<Max>), so a hostile
// count is rejected before anything is reserved.
//
// Every struct is equality-comparable so the codec round-trip tests can
// assert bit-exactness — which is what keeps the in-sim protocol carriable
// on the wire.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "net/ids.hpp"
#include "payment/money.hpp"
#include "payment/receipt.hpp"
#include "payment/settlement.hpp"

namespace p2panon::transport::wire {

/// Longest node path a fixed-size wire message carries (initiator,
/// forwarders, responder). The paper's TTL caps forwarders at ttl_hops
/// (default 4); 16 leaves generous headroom without unbounded frames.
inline constexpr std::size_t kMaxWirePath = 16;

/// Most path records one OpenSettlementMsg carries.
inline constexpr std::size_t kMaxWireRecords = 4096;

/// T or const T: a field list serves the encoder and the decoder alike.
template <typename T, typename Msg>
concept MaybeConst = std::is_same_v<std::remove_const_t<T>, Msg>;

/// A list field: u32 count, then the elements. `Max` is its decode bound.
template <typename List, std::size_t Max>
struct Bounded {
  List& items;  ///< std::vector<T>, const when encoding
};

template <std::size_t Max, typename List>
constexpr Bounded<List, Max> bounded(List& items) noexcept {
  return {items};
}

/// A field list: members by reference, Bounded wrappers by value.
template <typename... Field>
constexpr std::tuple<Field...> layout(Field&&... f) noexcept {
  return {std::forward<Field>(f)...};
}

enum class MsgType : std::uint16_t {
  kLeg = 1,
  kAck = 2,
  kNack = 3,
  kData = 4,
  kClaim = 5,
  kClose = 6,
  kHello = 7,
  kHelloReply = 8,
  kSetup = 9,
  kSetupAck = 10,
  kContract = 11,
  kContractAck = 12,
  kOpenSettlement = 13,
  kOpenReply = 14,
  kClaimReply = 15,
  kCloseReply = 16,
  kHeartbeat = 17,
  kHeartbeatAck = 18,
  kBye = 19,
  kSweep = 20,
  kSweepReply = 21,
};

// --- Contract/setup plane (sim legs) ---------------------------------------

/// One hop of the in-sim setup protocol: the payload of a setup leg moving
/// forward, reaching the responder, or the confirmation retracing a hop.
struct LegMsg {
  static constexpr MsgType kType = MsgType::kLeg;
  net::PairId pair = net::kInvalidPair;
  std::uint32_t conn_index = 0;
  std::uint32_t attempt = 0;
  std::uint64_t tid = 0;  ///< leg identity (stale acks/timeouts compare it)
  std::uint8_t kind = 0;  ///< AsyncConnectionRunner::LegDelivery::Kind
  net::NodeId holder = net::kInvalidNode;
  net::NodeId next = net::kInvalidNode;
  std::uint32_t forwarders = 0;
  std::uint32_t index = 0;

  friend constexpr auto fields(MaybeConst<LegMsg> auto& m) {
    return layout(m.pair, m.conn_index, m.attempt, m.tid, m.kind, m.holder, m.next,
                  m.forwarders, m.index);
  }
  friend bool operator==(const LegMsg&, const LegMsg&) = default;
};

struct AckMsg {
  static constexpr MsgType kType = MsgType::kAck;
  net::PairId pair = net::kInvalidPair;
  std::uint32_t conn_index = 0;
  std::uint64_t tid = 0;

  friend constexpr auto fields(MaybeConst<AckMsg> auto& m) {
    return layout(m.pair, m.conn_index, m.tid);
  }
  friend bool operator==(const AckMsg&, const AckMsg&) = default;
};

struct NackMsg {
  static constexpr MsgType kType = MsgType::kNack;
  net::PairId pair = net::kInvalidPair;
  std::uint32_t conn_index = 0;
  std::uint32_t attempt = 0;

  friend constexpr auto fields(MaybeConst<NackMsg> auto& m) {
    return layout(m.pair, m.conn_index, m.attempt);
  }
  friend bool operator==(const NackMsg&, const NackMsg&) = default;
};

// --- Data plane ------------------------------------------------------------

/// One keepalive hop: generation + sequence identify the probe, `index` is
/// its position on the path, `echo` marks the return direction.
struct DataMsg {
  static constexpr MsgType kType = MsgType::kData;
  net::PairId pair = net::kInvalidPair;
  std::uint32_t conn_index = 0;
  std::uint32_t gen = 0;
  std::uint64_t seq = 0;
  std::uint32_t index = 0;
  std::uint8_t echo = 0;

  friend constexpr auto fields(MaybeConst<DataMsg> auto& m) {
    return layout(m.pair, m.conn_index, m.gen, m.seq, m.index, m.echo);
  }
  friend bool operator==(const DataMsg&, const DataMsg&) = default;
};

// --- Claim/settlement plane ------------------------------------------------

/// A forwarder redeems one receipt against an open settlement.
struct ClaimMsg {
  static constexpr MsgType kType = MsgType::kClaim;
  std::uint32_t sid = 0;  ///< payment::SettlementId
  std::uint32_t claimant = 0;  ///< payment::AccountId
  payment::ForwardReceipt receipt;

  friend constexpr auto fields(MaybeConst<ClaimMsg> auto& m) {
    return layout(m.sid, m.claimant, m.receipt);
  }
  friend bool operator==(const ClaimMsg&, const ClaimMsg&) = default;
};

struct ClaimReplyMsg {
  static constexpr MsgType kType = MsgType::kClaimReply;
  std::uint8_t result = 0;  ///< payment::ClaimResult

  friend constexpr auto fields(MaybeConst<ClaimReplyMsg> auto& m) { return layout(m.result); }
  friend bool operator==(const ClaimReplyMsg&, const ClaimReplyMsg&) = default;
};

struct CloseMsg {
  static constexpr MsgType kType = MsgType::kClose;
  std::uint32_t sid = 0;

  friend constexpr auto fields(MaybeConst<CloseMsg> auto& m) { return layout(m.sid); }
  friend bool operator==(const CloseMsg&, const CloseMsg&) = default;
};

struct CloseReplyMsg {
  static constexpr MsgType kType = MsgType::kCloseReply;
  std::uint8_t ok = 0;

  friend constexpr auto fields(MaybeConst<CloseReplyMsg> auto& m) { return layout(m.ok); }
  friend bool operator==(const CloseReplyMsg&, const CloseReplyMsg&) = default;
};

/// OpenSettlementMsg carries payment::PathRecord verbatim; this is its layout
/// (a forwarder list holds at most 4 * kMaxWirePath nodes).
constexpr auto fields(MaybeConst<payment::PathRecord> auto& r) {
  return layout(r.conn_index, r.entry, r.exit, bounded<4 * kMaxWirePath>(r.forwarders));
}

/// Initiator -> bank: fund an escrow and open the settlement with the
/// completed-connection records.
struct OpenSettlementMsg {
  static constexpr MsgType kType = MsgType::kOpenSettlement;
  net::PairId pair = net::kInvalidPair;
  std::uint32_t initiator_account = 0;
  payment::Amount escrow_milli = 0;
  payment::Amount forwarding_benefit_milli = 0;  ///< P_f
  payment::Amount routing_benefit_milli = 0;     ///< P_r
  std::vector<payment::PathRecord> records;

  friend constexpr auto fields(MaybeConst<OpenSettlementMsg> auto& m) {
    return layout(m.pair, m.initiator_account, m.escrow_milli, m.forwarding_benefit_milli,
                  m.routing_benefit_milli, bounded<kMaxWireRecords>(m.records));
  }
  friend bool operator==(const OpenSettlementMsg&, const OpenSettlementMsg&) = default;
};

struct OpenReplyMsg {
  static constexpr MsgType kType = MsgType::kOpenReply;
  std::uint8_t ok = 0;
  std::uint32_t sid = 0;

  friend constexpr auto fields(MaybeConst<OpenReplyMsg> auto& m) { return layout(m.ok, m.sid); }
  friend bool operator==(const OpenReplyMsg&, const OpenReplyMsg&) = default;
};

/// Initiator -> forwarder: your receipt for this settlement (the reverse of
/// the paper's receipt chain — here the initiator distributes the MAC'd
/// statements it validated, and the forwarder claims directly at the bank).
struct ContractMsg {
  static constexpr MsgType kType = MsgType::kContract;
  std::uint32_t sid = 0;
  std::uint16_t bank_port = 0;  ///< where to claim (loopback TCP)
  payment::ForwardReceipt receipt;

  friend constexpr auto fields(MaybeConst<ContractMsg> auto& m) {
    return layout(m.sid, m.bank_port, m.receipt);
  }
  friend bool operator==(const ContractMsg&, const ContractMsg&) = default;
};

struct ContractAckMsg {
  static constexpr MsgType kType = MsgType::kContractAck;
  std::uint32_t sid = 0;

  friend constexpr auto fields(MaybeConst<ContractAckMsg> auto& m) { return layout(m.sid); }
  friend bool operator==(const ContractAckMsg&, const ContractAckMsg&) = default;
};

// --- Membership / liveness plane -------------------------------------------

struct HelloMsg {
  static constexpr MsgType kType = MsgType::kHello;
  net::NodeId node = net::kInvalidNode;

  friend constexpr auto fields(MaybeConst<HelloMsg> auto& m) { return layout(m.node); }
  friend bool operator==(const HelloMsg&, const HelloMsg&) = default;
};

struct HelloReplyMsg {
  static constexpr MsgType kType = MsgType::kHelloReply;
  std::uint32_t account = 0;
  std::uint64_t mac_key = 0;
  payment::Amount balance_milli = 0;

  friend constexpr auto fields(MaybeConst<HelloReplyMsg> auto& m) {
    return layout(m.account, m.mac_key, m.balance_milli);
  }
  friend bool operator==(const HelloReplyMsg&, const HelloReplyMsg&) = default;
};

/// Multi-process path formation: the full path rides along, `hop` is the
/// receiver's position; it forwards to path[hop + 1] and acks back once the
/// downstream ack arrived (acks cascade, giving an end-to-end confirm).
struct SetupMsg {
  static constexpr MsgType kType = MsgType::kSetup;
  net::PairId pair = net::kInvalidPair;
  std::uint32_t conn_index = 0;
  std::uint32_t hop = 0;
  std::vector<net::NodeId> path;  ///< size <= kMaxWirePath

  friend constexpr auto fields(MaybeConst<SetupMsg> auto& m) {
    return layout(m.pair, m.conn_index, m.hop, bounded<kMaxWirePath>(m.path));
  }
  friend bool operator==(const SetupMsg&, const SetupMsg&) = default;
};

struct SetupAckMsg {
  static constexpr MsgType kType = MsgType::kSetupAck;
  net::PairId pair = net::kInvalidPair;
  std::uint32_t conn_index = 0;

  friend constexpr auto fields(MaybeConst<SetupAckMsg> auto& m) {
    return layout(m.pair, m.conn_index);
  }
  friend bool operator==(const SetupAckMsg&, const SetupAckMsg&) = default;
};

struct HeartbeatMsg {
  static constexpr MsgType kType = MsgType::kHeartbeat;
  std::uint64_t nonce = 0;

  friend constexpr auto fields(MaybeConst<HeartbeatMsg> auto& m) { return layout(m.nonce); }
  friend bool operator==(const HeartbeatMsg&, const HeartbeatMsg&) = default;
};

struct HeartbeatAckMsg {
  static constexpr MsgType kType = MsgType::kHeartbeatAck;
  std::uint64_t nonce = 0;

  friend constexpr auto fields(MaybeConst<HeartbeatAckMsg> auto& m) { return layout(m.nonce); }
  friend bool operator==(const HeartbeatAckMsg&, const HeartbeatAckMsg&) = default;
};

/// Graceful shutdown: the sender is leaving cleanly (NACK analog). A crash
/// sends nothing — the difference is exactly the announced-liveness split
/// the decision layer already models.
struct ByeMsg {
  static constexpr MsgType kType = MsgType::kBye;
  std::uint16_t port = 0;  ///< the departing peer's listen port

  friend constexpr auto fields(MaybeConst<ByeMsg> auto& m) { return layout(m.port); }
  friend bool operator==(const ByeMsg&, const ByeMsg&) = default;
};

/// Driver -> bank: run the deadline sweep and write the reconciliation
/// report (end of a chaos run).
struct SweepMsg {
  static constexpr MsgType kType = MsgType::kSweep;
  std::uint8_t write_report = 0;

  friend constexpr auto fields(MaybeConst<SweepMsg> auto& m) { return layout(m.write_report); }
  friend bool operator==(const SweepMsg&, const SweepMsg&) = default;
};

struct SweepReplyMsg {
  static constexpr MsgType kType = MsgType::kSweepReply;
  std::uint32_t terminalised = 0;

  friend constexpr auto fields(MaybeConst<SweepReplyMsg> auto& m) { return layout(m.terminalised); }
  friend bool operator==(const SweepReplyMsg&, const SweepReplyMsg&) = default;
};

using WireMessage =
    std::variant<LegMsg, AckMsg, NackMsg, DataMsg, ClaimMsg, ClaimReplyMsg, CloseMsg,
                 CloseReplyMsg, OpenSettlementMsg, OpenReplyMsg, ContractMsg, ContractAckMsg,
                 HelloMsg, HelloReplyMsg, SetupMsg, SetupAckMsg, HeartbeatMsg, HeartbeatAckMsg,
                 ByeMsg, SweepMsg, SweepReplyMsg>;

template <typename... Msg>
constexpr bool distinct_type_tags(std::variant<Msg...>*) {
  const std::array<MsgType, sizeof...(Msg)> tags{Msg::kType...};
  return ((std::count(tags.begin(), tags.end(), Msg::kType) == 1) && ...);
}
static_assert(distinct_type_tags(static_cast<WireMessage*>(nullptr)),
              "two WireMessage alternatives share a MsgType");

[[nodiscard]] constexpr MsgType type_of(const WireMessage& m) noexcept {
  return std::visit([](const auto& msg) { return std::remove_cvref_t<decltype(msg)>::kType; }, m);
}

}  // namespace p2panon::transport::wire
