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
// Every struct is equality-comparable so the codec round-trip tests can
// assert bit-exactness — which is what keeps the in-sim protocol carriable
// on the wire.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "net/ids.hpp"
#include "payment/money.hpp"
#include "payment/receipt.hpp"

namespace p2panon::transport::wire {

/// Longest node path a fixed-size wire message carries (initiator,
/// forwarders, responder). The paper's TTL caps forwarders at ttl_hops
/// (default 4); 16 leaves generous headroom without unbounded frames.
inline constexpr std::size_t kMaxWirePath = 16;

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
  net::PairId pair = net::kInvalidPair;
  std::uint32_t conn_index = 0;
  std::uint32_t attempt = 0;
  std::uint64_t tid = 0;  ///< leg identity (stale acks/timeouts compare it)
  std::uint8_t kind = 0;  ///< AsyncConnectionRunner::LegDelivery::Kind
  net::NodeId holder = net::kInvalidNode;
  net::NodeId next = net::kInvalidNode;
  std::uint32_t forwarders = 0;
  std::uint32_t index = 0;

  friend bool operator==(const LegMsg&, const LegMsg&) = default;
};

struct AckMsg {
  net::PairId pair = net::kInvalidPair;
  std::uint32_t conn_index = 0;
  std::uint64_t tid = 0;

  friend bool operator==(const AckMsg&, const AckMsg&) = default;
};

struct NackMsg {
  net::PairId pair = net::kInvalidPair;
  std::uint32_t conn_index = 0;
  std::uint32_t attempt = 0;

  friend bool operator==(const NackMsg&, const NackMsg&) = default;
};

// --- Data plane ------------------------------------------------------------

/// One keepalive hop: generation + sequence identify the probe, `index` is
/// its position on the path, `echo` marks the return direction.
struct DataMsg {
  net::PairId pair = net::kInvalidPair;
  std::uint32_t conn_index = 0;
  std::uint32_t gen = 0;
  std::uint64_t seq = 0;
  std::uint32_t index = 0;
  std::uint8_t echo = 0;

  friend bool operator==(const DataMsg&, const DataMsg&) = default;
};

// --- Claim/settlement plane ------------------------------------------------

/// A forwarder redeems one receipt against an open settlement.
struct ClaimMsg {
  std::uint32_t sid = 0;  ///< payment::SettlementId
  std::uint32_t claimant = 0;  ///< payment::AccountId
  payment::ForwardReceipt receipt;

  friend bool operator==(const ClaimMsg&, const ClaimMsg&) = default;
};

struct ClaimReplyMsg {
  std::uint8_t result = 0;  ///< payment::ClaimResult

  friend bool operator==(const ClaimReplyMsg&, const ClaimReplyMsg&) = default;
};

struct CloseMsg {
  std::uint32_t sid = 0;

  friend bool operator==(const CloseMsg&, const CloseMsg&) = default;
};

struct CloseReplyMsg {
  std::uint8_t ok = 0;

  friend bool operator==(const CloseReplyMsg&, const CloseReplyMsg&) = default;
};

/// One validated path record inside OpenSettlementMsg — the wire image of
/// payment::PathRecord.
struct WirePathRecord {
  std::uint32_t conn_index = 0;
  net::NodeId entry = net::kInvalidNode;
  net::NodeId exit = net::kInvalidNode;
  std::vector<net::NodeId> forwarders;

  friend bool operator==(const WirePathRecord&, const WirePathRecord&) = default;
};

/// Initiator -> bank: fund an escrow and open the settlement with the
/// completed-connection records.
struct OpenSettlementMsg {
  net::PairId pair = net::kInvalidPair;
  std::uint32_t initiator_account = 0;
  payment::Amount escrow_milli = 0;
  payment::Amount forwarding_benefit_milli = 0;  ///< P_f
  payment::Amount routing_benefit_milli = 0;     ///< P_r
  std::vector<WirePathRecord> records;

  friend bool operator==(const OpenSettlementMsg&, const OpenSettlementMsg&) = default;
};

struct OpenReplyMsg {
  std::uint8_t ok = 0;
  std::uint32_t sid = 0;

  friend bool operator==(const OpenReplyMsg&, const OpenReplyMsg&) = default;
};

/// Initiator -> forwarder: your receipt for this settlement (the reverse of
/// the paper's receipt chain — here the initiator distributes the MAC'd
/// statements it validated, and the forwarder claims directly at the bank).
struct ContractMsg {
  std::uint32_t sid = 0;
  std::uint16_t bank_port = 0;  ///< where to claim (loopback TCP)
  payment::ForwardReceipt receipt;

  friend bool operator==(const ContractMsg&, const ContractMsg&) = default;
};

struct ContractAckMsg {
  std::uint32_t sid = 0;

  friend bool operator==(const ContractAckMsg&, const ContractAckMsg&) = default;
};

// --- Membership / liveness plane -------------------------------------------

struct HelloMsg {
  net::NodeId node = net::kInvalidNode;

  friend bool operator==(const HelloMsg&, const HelloMsg&) = default;
};

struct HelloReplyMsg {
  std::uint32_t account = 0;
  std::uint64_t mac_key = 0;
  payment::Amount balance_milli = 0;

  friend bool operator==(const HelloReplyMsg&, const HelloReplyMsg&) = default;
};

/// Multi-process path formation: the full path rides along, `hop` is the
/// receiver's position; it forwards to path[hop + 1] and acks back once the
/// downstream ack arrived (acks cascade, giving an end-to-end confirm).
struct SetupMsg {
  net::PairId pair = net::kInvalidPair;
  std::uint32_t conn_index = 0;
  std::uint32_t hop = 0;
  std::vector<net::NodeId> path;  ///< size <= kMaxWirePath

  friend bool operator==(const SetupMsg&, const SetupMsg&) = default;
};

struct SetupAckMsg {
  net::PairId pair = net::kInvalidPair;
  std::uint32_t conn_index = 0;

  friend bool operator==(const SetupAckMsg&, const SetupAckMsg&) = default;
};

struct HeartbeatMsg {
  std::uint64_t nonce = 0;

  friend bool operator==(const HeartbeatMsg&, const HeartbeatMsg&) = default;
};

struct HeartbeatAckMsg {
  std::uint64_t nonce = 0;

  friend bool operator==(const HeartbeatAckMsg&, const HeartbeatAckMsg&) = default;
};

/// Graceful shutdown: the sender is leaving cleanly (NACK analog). A crash
/// sends nothing — the difference is exactly the announced-liveness split
/// the decision layer already models.
struct ByeMsg {
  std::uint16_t port = 0;  ///< the departing peer's listen port

  friend bool operator==(const ByeMsg&, const ByeMsg&) = default;
};

/// Driver -> bank: run the deadline sweep and write the reconciliation
/// report (end of a chaos run).
struct SweepMsg {
  std::uint8_t write_report = 0;

  friend bool operator==(const SweepMsg&, const SweepMsg&) = default;
};

struct SweepReplyMsg {
  std::uint32_t terminalised = 0;

  friend bool operator==(const SweepReplyMsg&, const SweepReplyMsg&) = default;
};

using WireMessage =
    std::variant<LegMsg, AckMsg, NackMsg, DataMsg, ClaimMsg, ClaimReplyMsg, CloseMsg,
                 CloseReplyMsg, OpenSettlementMsg, OpenReplyMsg, ContractMsg, ContractAckMsg,
                 HelloMsg, HelloReplyMsg, SetupMsg, SetupAckMsg, HeartbeatMsg, HeartbeatAckMsg,
                 ByeMsg, SweepMsg, SweepReplyMsg>;

[[nodiscard]] constexpr MsgType type_of(const WireMessage& m) noexcept {
  struct Visitor {
    constexpr MsgType operator()(const LegMsg&) const { return MsgType::kLeg; }
    constexpr MsgType operator()(const AckMsg&) const { return MsgType::kAck; }
    constexpr MsgType operator()(const NackMsg&) const { return MsgType::kNack; }
    constexpr MsgType operator()(const DataMsg&) const { return MsgType::kData; }
    constexpr MsgType operator()(const ClaimMsg&) const { return MsgType::kClaim; }
    constexpr MsgType operator()(const ClaimReplyMsg&) const { return MsgType::kClaimReply; }
    constexpr MsgType operator()(const CloseMsg&) const { return MsgType::kClose; }
    constexpr MsgType operator()(const CloseReplyMsg&) const { return MsgType::kCloseReply; }
    constexpr MsgType operator()(const OpenSettlementMsg&) const {
      return MsgType::kOpenSettlement;
    }
    constexpr MsgType operator()(const OpenReplyMsg&) const { return MsgType::kOpenReply; }
    constexpr MsgType operator()(const ContractMsg&) const { return MsgType::kContract; }
    constexpr MsgType operator()(const ContractAckMsg&) const { return MsgType::kContractAck; }
    constexpr MsgType operator()(const HelloMsg&) const { return MsgType::kHello; }
    constexpr MsgType operator()(const HelloReplyMsg&) const { return MsgType::kHelloReply; }
    constexpr MsgType operator()(const SetupMsg&) const { return MsgType::kSetup; }
    constexpr MsgType operator()(const SetupAckMsg&) const { return MsgType::kSetupAck; }
    constexpr MsgType operator()(const HeartbeatMsg&) const { return MsgType::kHeartbeat; }
    constexpr MsgType operator()(const HeartbeatAckMsg&) const { return MsgType::kHeartbeatAck; }
    constexpr MsgType operator()(const ByeMsg&) const { return MsgType::kBye; }
    constexpr MsgType operator()(const SweepMsg&) const { return MsgType::kSweep; }
    constexpr MsgType operator()(const SweepReplyMsg&) const { return MsgType::kSweepReply; }
  };
  return std::visit(Visitor{}, m);
}

}  // namespace p2panon::transport::wire
