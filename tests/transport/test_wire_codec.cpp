// Wire-codec round-trip and malformed-frame tests.
//
// Separate binary: like test_alloc_guard, it replaces the global allocation
// functions with counting wrappers. A hostile peer spraying garbage frames
// must not be able to make the receiver allocate more than the frame itself
// could back (let alone crash): every verdict in the malformed corpus is
// decoded once more inside a counted window and must allocate nothing, and
// every rejected mutated frame must allocate at most 4 bytes per frame byte.
#include "transport/crc32.hpp"
#include "transport/wire_codec.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <concepts>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "sim/rng.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};

void note_allocation(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_allocated_bytes.fetch_add(n, std::memory_order_relaxed);
  }
}

void* checked_malloc(std::size_t n) {
  note_allocation(n);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* checked_aligned(std::size_t n, std::size_t align) {
  note_allocation(n);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align, n == 0 ? 1 : n) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return checked_malloc(n); }
void* operator new[](std::size_t n) { return checked_malloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return checked_aligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return checked_aligned(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace p2panon;
using namespace p2panon::transport;

/// One representative instance per message type, every field non-default so
/// a dropped or reordered field cannot round-trip by accident.
std::vector<wire::WireMessage> sample_messages() {
  payment::ForwardReceipt receipt;
  receipt.pair = 11;
  receipt.conn_index = 3;
  receipt.forwarder = 42;
  receipt.predecessor = 41;
  receipt.successor = 43;
  receipt.mac = 0xDEADBEEFCAFEF00Dull;

  std::vector<wire::WireMessage> msgs;
  msgs.push_back(wire::LegMsg{7, 2, 5, 0x123456789ABCDEF0ull, 1, 10, 11, 4, 2});
  msgs.push_back(wire::AckMsg{7, 2, 0x123456789ABCDEF0ull});
  msgs.push_back(wire::NackMsg{7, 2, 5});
  msgs.push_back(wire::DataMsg{7, 2, 9, 0xFEDCBA9876543210ull, 3, 1});
  msgs.push_back(wire::ClaimMsg{17, 42, receipt});
  msgs.push_back(wire::ClaimReplyMsg{2});
  msgs.push_back(wire::CloseMsg{17});
  msgs.push_back(wire::CloseReplyMsg{1});
  msgs.push_back(wire::OpenSettlementMsg{
      11, 9, 5000, 40, 25, {payment::PathRecord{0, 1, 5, {2, 3, 4}},
                            payment::PathRecord{1, 1, 5, {6}}}});
  msgs.push_back(wire::OpenReplyMsg{1, 17});
  msgs.push_back(wire::ContractMsg{17, 40001, receipt});
  msgs.push_back(wire::ContractAckMsg{17});
  msgs.push_back(wire::HelloMsg{42});
  msgs.push_back(wire::HelloReplyMsg{9, 0xA5A5A5A5A5A5A5A5ull, 100000});
  msgs.push_back(wire::SetupMsg{11, 3, 1, {1, 2, 3, 4, 5}});
  msgs.push_back(wire::SetupAckMsg{11, 3});
  msgs.push_back(wire::HeartbeatMsg{0x1111222233334444ull});
  msgs.push_back(wire::HeartbeatAckMsg{0x1111222233334444ull});
  msgs.push_back(wire::ByeMsg{40002});
  msgs.push_back(wire::SweepMsg{1});
  msgs.push_back(wire::SweepReplyMsg{13});
  return msgs;
}

std::vector<std::byte> encode_one(const wire::WireMessage& m) {
  std::vector<std::byte> buf;
  const std::size_t n = encode(m, buf);
  EXPECT_EQ(n, buf.size());
  EXPECT_GE(n, kFrameOverhead);
  return buf;
}

std::uint32_t read_le32(const std::vector<std::byte>& b, std::size_t at) {
  return static_cast<std::uint32_t>(b[at]) | (static_cast<std::uint32_t>(b[at + 1]) << 8) |
         (static_cast<std::uint32_t>(b[at + 2]) << 16) |
         (static_cast<std::uint32_t>(b[at + 3]) << 24);
}

std::uint16_t read_le16(const std::vector<std::byte>& b, std::size_t at) {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(b[at]) |
                                    (static_cast<std::uint16_t>(b[at + 1]) << 8));
}

void write_le16(std::vector<std::byte>& b, std::size_t at, std::uint16_t v) {
  b[at] = static_cast<std::byte>(v & 0xFF);
  b[at + 1] = static_cast<std::byte>(v >> 8);
}

void write_le32(std::vector<std::byte>& b, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b[at + i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
}

/// Recompute the trailing CRC after the test patched header/payload bytes —
/// isolates the verdict under test from a cascading kBadCrc.
void fix_crc(std::vector<std::byte>& frame) {
  const std::uint32_t crc =
      crc32(std::span<const std::byte>{frame.data(), frame.size() - 4});
  write_le32(frame, frame.size() - 4, crc);
}

// --- Round-trip bit-exactness ------------------------------------------------

TEST(WireCodec, RoundTripsEveryMessageTypeBitExactly) {
  for (const wire::WireMessage& m : sample_messages()) {
    SCOPED_TRACE("type " + std::to_string(static_cast<int>(wire::type_of(m))));
    const std::vector<std::byte> frame = encode_one(m);

    wire::WireMessage decoded;
    std::size_t consumed = 0;
    ASSERT_EQ(decode(frame, decoded, consumed), DecodeResult::kOk);
    EXPECT_EQ(consumed, frame.size());
    EXPECT_EQ(decoded, m) << "decoded message differs from the encoded one";

    // Re-encoding the decoded message must reproduce the frame byte for
    // byte — the codec is a bijection on its value set.
    const std::vector<std::byte> again = encode_one(decoded);
    EXPECT_EQ(again, frame);
  }
}

// --- Seeded round-trip property ----------------------------------------------
//
// Every alternative of wire::WireMessage, filled field by field either with
// random values or with one extreme applied to every field at once (0, the
// type's max, the type's min — the latter differs from 0 only for the
// signed milli-credit amounts). Variable-length fields run from empty to
// the longest the decoder accepts (SetupMsg: kMaxWirePath nodes; a path
// record's forwarder list: 4 * kMaxWirePath); the record list of
// OpenSettlementMsg is capped at kMaxRecords so the frame stays under
// kDefaultMaxFrame.

enum class Fill : std::uint8_t { kRandom, kZero, kMax, kMin };

constexpr std::size_t kMaxRecords = 16;
constexpr int kRandomInstances = 300;

class FieldGen {
 public:
  FieldGen(sim::rng::Stream& rng, Fill fill) : rng_(rng), fill_(fill) {}

  template <std::integral T>
  void operator()(T& v) {
    switch (fill_) {
      case Fill::kRandom: v = static_cast<T>(rng_.next_u64()); return;
      case Fill::kZero: v = T{0}; return;
      case Fill::kMax: v = std::numeric_limits<T>::max(); return;
      case Fill::kMin: v = std::numeric_limits<T>::min(); return;
    }
  }

  void operator()(payment::ForwardReceipt& r) {
    (*this)(r.pair);
    (*this)(r.conn_index);
    (*this)(r.forwarder);
    (*this)(r.predecessor);
    (*this)(r.successor);
    (*this)(r.mac);
  }

  void operator()(std::vector<net::NodeId>& nodes, std::size_t max_len) {
    nodes.resize(length(max_len));
    for (net::NodeId& n : nodes) (*this)(n);
  }

  [[nodiscard]] std::size_t length(std::size_t max_len) {
    switch (fill_) {
      case Fill::kRandom: return static_cast<std::size_t>(rng_.below(max_len + 1));
      case Fill::kMax: return max_len;
      case Fill::kZero:
      case Fill::kMin: return 0;
    }
    return 0;
  }

 private:
  sim::rng::Stream& rng_;
  Fill fill_;
};

void fill(FieldGen& g, wire::LegMsg& m) {
  g(m.pair);
  g(m.conn_index);
  g(m.attempt);
  g(m.tid);
  g(m.kind);
  g(m.holder);
  g(m.next);
  g(m.forwarders);
  g(m.index);
}
void fill(FieldGen& g, wire::AckMsg& m) {
  g(m.pair);
  g(m.conn_index);
  g(m.tid);
}
void fill(FieldGen& g, wire::NackMsg& m) {
  g(m.pair);
  g(m.conn_index);
  g(m.attempt);
}
void fill(FieldGen& g, wire::DataMsg& m) {
  g(m.pair);
  g(m.conn_index);
  g(m.gen);
  g(m.seq);
  g(m.index);
  g(m.echo);
}
void fill(FieldGen& g, wire::ClaimMsg& m) {
  g(m.sid);
  g(m.claimant);
  g(m.receipt);
}
void fill(FieldGen& g, wire::ClaimReplyMsg& m) { g(m.result); }
void fill(FieldGen& g, wire::CloseMsg& m) { g(m.sid); }
void fill(FieldGen& g, wire::CloseReplyMsg& m) { g(m.ok); }
void fill(FieldGen& g, wire::OpenSettlementMsg& m) {
  g(m.pair);
  g(m.initiator_account);
  g(m.escrow_milli);
  g(m.forwarding_benefit_milli);
  g(m.routing_benefit_milli);
  m.records.resize(g.length(kMaxRecords));
  for (payment::PathRecord& rec : m.records) {
    g(rec.conn_index);
    g(rec.entry);
    g(rec.exit);
    g(rec.forwarders, 4 * wire::kMaxWirePath);
  }
}
void fill(FieldGen& g, wire::OpenReplyMsg& m) {
  g(m.ok);
  g(m.sid);
}
void fill(FieldGen& g, wire::ContractMsg& m) {
  g(m.sid);
  g(m.bank_port);
  g(m.receipt);
}
void fill(FieldGen& g, wire::ContractAckMsg& m) { g(m.sid); }
void fill(FieldGen& g, wire::HelloMsg& m) { g(m.node); }
void fill(FieldGen& g, wire::HelloReplyMsg& m) {
  g(m.account);
  g(m.mac_key);
  g(m.balance_milli);
}
void fill(FieldGen& g, wire::SetupMsg& m) {
  g(m.pair);
  g(m.conn_index);
  g(m.hop);
  g(m.path, wire::kMaxWirePath);
}
void fill(FieldGen& g, wire::SetupAckMsg& m) {
  g(m.pair);
  g(m.conn_index);
}
void fill(FieldGen& g, wire::HeartbeatMsg& m) { g(m.nonce); }
void fill(FieldGen& g, wire::HeartbeatAckMsg& m) { g(m.nonce); }
void fill(FieldGen& g, wire::ByeMsg& m) { g(m.port); }
void fill(FieldGen& g, wire::SweepMsg& m) { g(m.write_report); }
void fill(FieldGen& g, wire::SweepReplyMsg& m) { g(m.terminalised); }

/// encode -> decode -> compare, then re-encode the decoded value: the frame
/// must come back byte for byte.
void expect_round_trip(const wire::WireMessage& m) {
  std::vector<std::byte> frame;
  const std::size_t n = encode(m, frame);
  ASSERT_EQ(n, frame.size());
  wire::WireMessage decoded;
  std::size_t consumed = 0;
  ASSERT_EQ(decode(frame, decoded, consumed), DecodeResult::kOk);
  ASSERT_EQ(consumed, frame.size());
  ASSERT_EQ(decoded, m) << "decoded message differs from the encoded one";
  std::vector<std::byte> again;
  (void)encode(decoded, again);
  ASSERT_EQ(again, frame);
}

template <std::size_t I>
void round_trip_alternative(sim::rng::Stream& rng) {
  using Msg = std::variant_alternative_t<I, wire::WireMessage>;
  SCOPED_TRACE("type " + std::to_string(static_cast<int>(wire::type_of(Msg{}))));
  for (const Fill extreme : {Fill::kZero, Fill::kMax, Fill::kMin}) {
    FieldGen g(rng, extreme);
    Msg m;
    fill(g, m);
    expect_round_trip(m);
    if (::testing::Test::HasFatalFailure()) return;
  }
  FieldGen g(rng, Fill::kRandom);
  for (int i = 0; i < kRandomInstances; ++i) {
    Msg m;
    fill(g, m);
    expect_round_trip(m);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

template <std::size_t... I>
void round_trip_every_alternative(sim::rng::Stream& rng, std::index_sequence<I...>) {
  (round_trip_alternative<I>(rng), ...);
}

TEST(WireCodec, RoundTripPropertyHoldsForEveryMessageType) {
  sim::rng::Stream rng(20240917);
  round_trip_every_alternative(
      rng, std::make_index_sequence<std::variant_size_v<wire::WireMessage>>{});
}

TEST(WireCodec, HeaderLayoutIsPinned) {
  const std::vector<std::byte> frame = encode_one(wire::HeartbeatMsg{0xABCDull});
  EXPECT_EQ(read_le32(frame, 0), kWireMagic);
  EXPECT_EQ(read_le16(frame, 4), kWireVersion);
  EXPECT_EQ(read_le16(frame, 6), static_cast<std::uint16_t>(wire::MsgType::kHeartbeat));
  EXPECT_EQ(read_le32(frame, 8), frame.size() - kFrameOverhead);  // payload length
  const std::uint32_t crc =
      crc32(std::span<const std::byte>{frame.data(), frame.size() - 4});
  EXPECT_EQ(read_le32(frame, frame.size() - 4), crc);
}

std::string to_hex(const std::vector<std::byte>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  hex.reserve(2 * bytes.size());
  for (const std::byte b : bytes) {
    hex.push_back(kDigits[static_cast<unsigned>(b) >> 4]);
    hex.push_back(kDigits[static_cast<unsigned>(b) & 0xF]);
  }
  return hex;
}

TEST(WireCodec, PayloadBytesArePinned) {
  // The full frame (header, payload, CRC) of every sample_messages() entry,
  // recorded once. Round-trip tests cannot catch a field reorder applied to
  // encoder and decoder alike; this pin can — and a reorder would silently
  // break every bank journal that transport_chaos --resume replays.
  const std::vector<std::string> want = {
      // LegMsg
      "415032500100010025000000070000000200000005000000f0debc9a78563412010a0000000b0000"
      "0004000000020000003d30596f",
      // AckMsg
      "4150325001000200100000000700000002000000f0debc9a785634128e68ebe1",
      // NackMsg
      "41503250010003000c000000070000000200000005000000fdaf1d99",
      // DataMsg
      "4150325001000400190000000700000002000000090000001032547698badcfe0300000001109e74"
      "35",
      // ClaimMsg
      "415032500100050038000000110000002a0000000b0000000000000003000000000000002a000000"
      "0000000029000000000000002b000000000000000df0fecaefbeadde90616a3f",
      // ClaimReplyMsg
      "4150325001000f000100000002030c5ba8",
      // CloseMsg
      "415032500100060004000000110000004c7d525b",
      // CloseReplyMsg
      "415032500100100001000000019eb1c4a0",
      // OpenSettlementMsg
      "4150325001000d00540000000b000000090000008813000000000000280000000000000019000000"
      "00000000020000000000000001000000050000000300000002000000030000000400000001000000"
      "01000000050000000100000006000000b0be3a6f",
      // OpenReplyMsg
      "4150325001000e0005000000011100000035e2ce88",
      // ContractMsg
      "4150325001000b003600000011000000419c0b0000000000000003000000000000002a0000000000"
      "000029000000000000002b000000000000000df0fecaefbeaddef5853059",
      // ContractAckMsg
      "4150325001000c00040000001100000085ed704c",
      // HelloMsg
      "4150325001000700040000002a000000d269ba93",
      // HelloReplyMsg
      "41503250010008001400000009000000a5a5a5a5a5a5a5a5a086010000000000c09429d4",
      // SetupMsg
      "4150325001000900240000000b000000030000000100000005000000010000000200000003000000"
      "04000000050000004292423d",
      // SetupAckMsg
      "4150325001000a00080000000b00000003000000912aaa08",
      // HeartbeatMsg
      "41503250010011000800000044443333222211115942981f",
      // HeartbeatAckMsg
      "41503250010012000800000044443333222211118267f963",
      // ByeMsg
      "415032500100130002000000429c9b23e3ef",
      // SweepMsg
      "415032500100140001000000018d958b54",
      // SweepReplyMsg
      "4150325001001500040000000d00000080af048d",
  };
  const std::vector<wire::WireMessage> msgs = sample_messages();
  ASSERT_EQ(msgs.size(), want.size());
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    SCOPED_TRACE("type " + std::to_string(static_cast<int>(wire::type_of(msgs[i]))));
    EXPECT_EQ(to_hex(encode_one(msgs[i])), want[i]);
  }
}

TEST(WireCodec, EncodeAppendsForStreaming) {
  std::vector<std::byte> buf;
  const std::size_t first = encode(wire::CloseMsg{17}, buf);
  const std::size_t second = encode(wire::SweepMsg{1}, buf);
  ASSERT_EQ(buf.size(), first + second);

  wire::WireMessage m;
  std::size_t consumed = 0;
  ASSERT_EQ(decode(buf, m, consumed), DecodeResult::kOk);
  EXPECT_EQ(consumed, first);
  EXPECT_EQ(m, wire::WireMessage{wire::CloseMsg{17}});
  ASSERT_EQ(decode(std::span<const std::byte>{buf}.subspan(consumed), m, consumed),
            DecodeResult::kOk);
  EXPECT_EQ(consumed, second);
  EXPECT_EQ(m, wire::WireMessage{wire::SweepMsg{1}});
}

// --- Malformed-frame corpus --------------------------------------------------

struct MalformedCase {
  const char* name;
  std::vector<std::byte> bytes;
  DecodeResult want;
  std::size_t want_consumed;  ///< 0 = unresynchronisable
};

std::vector<MalformedCase> malformed_corpus() {
  const std::vector<std::byte> good = [] {
    std::vector<std::byte> b;
    encode(wire::AckMsg{7, 2, 99}, b);
    return b;
  }();

  std::vector<MalformedCase> corpus;

  // Truncated header: fewer bytes than the fixed header.
  corpus.push_back({"truncated-header",
                    {good.begin(), good.begin() + static_cast<long>(kHeaderSize) - 1},
                    DecodeResult::kTruncated, 0});

  // Truncated frame: full header, payload cut short.
  corpus.push_back({"truncated-frame", {good.begin(), good.end() - 5},
                    DecodeResult::kTruncated, 0});

  // Bad magic: the stream is garbage; no resync is possible.
  {
    std::vector<std::byte> b = good;
    b[0] = static_cast<std::byte>(0x00);
    corpus.push_back({"bad-magic", std::move(b), DecodeResult::kBadMagic, 0});
  }

  // Oversize: declared length exceeds max_frame; header untrusted.
  {
    std::vector<std::byte> b = good;
    write_le32(b, 8, static_cast<std::uint32_t>(kDefaultMaxFrame) + 1);
    fix_crc(b);
    corpus.push_back({"oversize", std::move(b), DecodeResult::kOversize, 0});
  }

  // Future version: version gate fires before the CRC check by contract (a
  // future version may change the checksum algorithm, never the header), so
  // the CRC is deliberately NOT fixed up here.
  {
    std::vector<std::byte> b = good;
    write_le16(b, 4, kWireVersion + 1);
    corpus.push_back({"future-version", std::move(b), DecodeResult::kFutureVersion,
                      good.size()});
  }

  // Bad CRC: one payload bit flipped.
  {
    std::vector<std::byte> b = good;
    b[kHeaderSize] ^= static_cast<std::byte>(0x01);
    corpus.push_back({"bad-crc", std::move(b), DecodeResult::kBadCrc, good.size()});
  }

  // Unknown type at this version (frame otherwise intact).
  {
    std::vector<std::byte> b = good;
    write_le16(b, 6, 999);
    fix_crc(b);
    corpus.push_back({"unknown-type", std::move(b), DecodeResult::kUnknownType, good.size()});
  }

  // Bad length: valid frame whose payload is one byte longer than AckMsg
  // parses — decode must consume the whole declared frame and move on.
  {
    std::vector<std::byte> b = good;
    b.insert(b.end() - 4, static_cast<std::byte>(0));
    write_le32(b, 8, read_le32(b, 8) + 1);
    fix_crc(b);
    corpus.push_back({"bad-length", std::move(b), DecodeResult::kBadLength, good.size() + 1});
  }

  // Hostile record count: a 52-byte OpenSettlementMsg whose record count
  // claims 4096 records but carries none. The count is within the record
  // bound, so only the byte-budget check (count x minimum record size must
  // fit the remaining payload) can reject it before the decoder reserves
  // room for 4096 records.
  {
    std::vector<std::byte> b;
    encode(wire::OpenSettlementMsg{11, 9, 5000, 40, 25, {}}, b);
    write_le32(b, b.size() - 8, 4096);  // the count is the last payload field
    fix_crc(b);
    const std::size_t size = b.size();
    corpus.push_back({"hostile-record-count", std::move(b), DecodeResult::kBadLength, size});
  }

  return corpus;
}

TEST(WireCodec, MalformedCorpusIsRejectedWithTheContractedVerdicts) {
  for (const MalformedCase& c : malformed_corpus()) {
    SCOPED_TRACE(c.name);
    wire::WireMessage out;
    std::size_t consumed = 0xFFFF;  // decode must overwrite, even on reject
    EXPECT_EQ(decode(c.bytes, out, consumed), c.want) << to_string(c.want);
    EXPECT_EQ(consumed, c.want_consumed);
  }
}

TEST(WireCodec, RejectPathDoesNotAllocate) {
  // Warm-up pass (also pre-faults any lazy allocator state), then the same
  // corpus decoded inside a counted window. No gtest assertions inside the
  // window — they allocate.
  const std::vector<MalformedCase> corpus = malformed_corpus();
  wire::WireMessage out;
  std::size_t consumed = 0;
  for (const MalformedCase& c : corpus) (void)decode(c.bytes, out, consumed);

  g_allocations.store(0);
  g_counting.store(true);
  for (const MalformedCase& c : corpus) (void)decode(c.bytes, out, consumed);
  g_counting.store(false);

  EXPECT_EQ(g_allocations.load(), 0u) << "rejecting a malformed frame heap-allocated";
}

// --- Bounded mutation smoke ----------------------------------------------------
//
// Every sample message plus a maximum-length SetupMsg (kMaxWirePath nodes)
// and OpenSettlementMsg (records whose forwarder lists are at their bound,
// 4 * kMaxWirePath), each mutated exhaustively: the payload cut at
// every byte offset, one byte appended, and a little-endian u32 overwritten
// at every payload offset with each of a set of count-like values (around the
// list bounds, and all ones). The CRC is fixed after every mutation, so the
// verdict comes from the payload parser. Each frame must decode to kOk and
// re-encode byte for byte, or be rejected as kBadLength — and a rejected
// frame may allocate at most 4 bytes per frame byte.

/// Two records keep the smoke under a second; each is as long as a record
/// gets, and the second one makes every mutation of the first's lengths
/// land on bytes a later field parses.
constexpr std::uint32_t kMutatedRecords = 2;

std::vector<wire::WireMessage> longest_messages() {
  sim::rng::Stream rng(20241017);
  const auto node = [&rng] { return static_cast<net::NodeId>(rng.next_u64()); };
  wire::SetupMsg setup{11, 3, 1, {}};
  for (std::size_t i = 0; i < wire::kMaxWirePath; ++i) setup.path.push_back(node());
  wire::OpenSettlementMsg open{11, 9, 5000, 40, 25, {}};
  for (std::uint32_t c = 0; c < kMutatedRecords; ++c) {
    payment::PathRecord rec{c, node(), node(), {}};
    for (std::size_t i = 0; i < 4 * wire::kMaxWirePath; ++i) rec.forwarders.push_back(node());
    open.records.push_back(std::move(rec));
  }
  return {setup, open};
}

/// The frame of `payload` under the header of `frame`, length and CRC fixed.
std::vector<std::byte> reframe(const std::vector<std::byte>& frame,
                               std::span<const std::byte> payload) {
  std::vector<std::byte> out(frame.begin(), frame.begin() + static_cast<long>(kHeaderSize));
  out.insert(out.end(), payload.begin(), payload.end());
  out.resize(out.size() + 4);
  write_le32(out, 8, static_cast<std::uint32_t>(payload.size()));
  fix_crc(out);
  return out;
}

struct MutationVerdict {
  DecodeResult result;
  std::size_t consumed;
  std::uint64_t allocated_bytes;
};

MutationVerdict decode_counted(const std::vector<std::byte>& frame, wire::WireMessage& out) {
  std::size_t consumed = 0;
  g_allocated_bytes.store(0);
  g_counting.store(true);
  const DecodeResult result = decode(frame, out, consumed);
  g_counting.store(false);
  return {result, consumed, g_allocated_bytes.load()};
}

void expect_rejected_or_round_trip(const std::vector<std::byte>& frame, const char* mutation,
                                   std::size_t offset) {
  wire::WireMessage out;
  const MutationVerdict v = decode_counted(frame, out);
  SCOPED_TRACE(std::string(mutation) + " at payload offset " + std::to_string(offset));
  ASSERT_EQ(v.consumed, frame.size());
  if (v.result == DecodeResult::kOk) {
    std::vector<std::byte> again;
    (void)encode(out, again);
    if (again != frame) {  // compared raw: hex only for the failure message
      FAIL() << "accepted frame re-encodes as " << to_hex(again) << ", not " << to_hex(frame);
    }
    return;
  }
  ASSERT_EQ(v.result, DecodeResult::kBadLength) << to_string(v.result);
  ASSERT_LE(v.allocated_bytes, 4 * frame.size()) << "rejecting the frame over-allocated";
}

TEST(WireCodec, MutatedFramesAreRejectedOrRoundTrip) {
  constexpr std::uint32_t kCounts[] = {0, 1, 64, 65, 4096, 4097, 0xFFFFFFFFu};
  std::vector<wire::WireMessage> msgs = sample_messages();
  for (wire::WireMessage& m : longest_messages()) msgs.push_back(std::move(m));

  for (const wire::WireMessage& m : msgs) {
    SCOPED_TRACE("type " + std::to_string(static_cast<int>(wire::type_of(m))));
    const std::vector<std::byte> frame = encode_one(m);
    const std::span<const std::byte> payload{frame.data() + kHeaderSize,
                                             frame.size() - kFrameOverhead};

    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      expect_rejected_or_round_trip(reframe(frame, payload.first(cut)), "truncate", cut);
      if (::testing::Test::HasFatalFailure()) return;
    }

    std::vector<std::byte> longer(payload.begin(), payload.end());
    longer.push_back(std::byte{0x5A});
    expect_rejected_or_round_trip(reframe(frame, longer), "append", payload.size());
    if (::testing::Test::HasFatalFailure()) return;

    for (std::size_t at = 0; at + 4 <= payload.size(); ++at) {
      for (const std::uint32_t count : kCounts) {
        std::vector<std::byte> mutated = frame;
        write_le32(mutated, kHeaderSize + at, count);
        fix_crc(mutated);
        expect_rejected_or_round_trip(mutated, "u32 overwrite", at);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(WireCodec, SkipsDamagedFrameAndDecodesTheNext) {
  // A skippable verdict (kBadCrc) followed by an intact frame: advancing by
  // `consumed` must land exactly on the next frame.
  std::vector<std::byte> buf;
  encode(wire::NackMsg{7, 2, 5}, buf);
  buf[kHeaderSize] ^= static_cast<std::byte>(0x01);
  const std::size_t first = buf.size();
  encode(wire::HeartbeatAckMsg{77}, buf);

  wire::WireMessage m;
  std::size_t consumed = 0;
  ASSERT_EQ(decode(buf, m, consumed), DecodeResult::kBadCrc);
  ASSERT_EQ(consumed, first);
  ASSERT_EQ(decode(std::span<const std::byte>{buf}.subspan(consumed), m, consumed),
            DecodeResult::kOk);
  EXPECT_EQ(m, wire::WireMessage{wire::HeartbeatAckMsg{77}});
}

TEST(WireCodec, EmptyBufferIsTruncatedNotAnError) {
  wire::WireMessage m;
  std::size_t consumed = 7;
  EXPECT_EQ(decode(std::span<const std::byte>{}, m, consumed), DecodeResult::kTruncated);
  EXPECT_EQ(consumed, 0u);
}

TEST(WireCodec, SetupPathBoundIsEnforced) {
  // A SetupMsg whose path exceeds kMaxWirePath must not round-trip: the
  // decoder rejects the frame (kBadLength) instead of reserving unbounded
  // memory off a hostile count field.
  wire::SetupMsg big;
  big.pair = 1;
  big.conn_index = 0;
  big.hop = 0;
  big.path.assign(wire::kMaxWirePath + 1, 3);
  std::vector<std::byte> buf;
  encode(wire::WireMessage{big}, buf);

  wire::WireMessage m;
  std::size_t consumed = 0;
  EXPECT_EQ(decode(buf, m, consumed), DecodeResult::kBadLength);
  EXPECT_EQ(consumed, buf.size());
}

TEST(WireCodec, CrcMatchesTheIeeeReference) {
  // Pin the CRC polynomial/reflection against the canonical check value:
  // CRC-32("123456789") = 0xCBF43926.
  const char* s = "123456789";
  std::vector<std::byte> bytes(9);
  std::memcpy(bytes.data(), s, 9);
  EXPECT_EQ(crc32(std::span<const std::byte>{bytes}), 0xCBF43926u);
}

}  // namespace
