// Versioned length-prefixed framing for wire messages.
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//   0       4     magic    0x50325041 ("P2PA")
//   4       2     version  kWireVersion (1)
//   6       2     type     wire::MsgType
//   8       4     length   payload byte count
//   12      len   payload  the message's field list (wire.hpp)
//   12+len  4     crc      CRC-32 (IEEE) over bytes [0, 12+len)
//
// decode() classifies a frame before parsing a single payload byte. Every
// list count is checked against its bound and against the unread bytes
// before anything is reserved, so a hostile peer spraying garbage cannot
// make the receiver allocate more than its frames back (tests/transport pin
// zero allocations for the malformed corpus, and at most 4 bytes per frame
// byte for every rejected mutation of a valid frame):
//
//   kTruncated      fewer bytes than the header, or than the declared frame
//   kBadMagic       first four bytes are not the magic (stream is garbage —
//                   no resync is possible, the connection must be dropped)
//   kOversize       declared length exceeds max_frame (header is not
//                   trusted further; drop the connection)
//   kFutureVersion  version > kWireVersion; the frame is skipped whole
//                   (header layout is stable across versions by contract)
//   kBadCrc         checksum mismatch over header + payload
//   kUnknownType    intact frame, but no such message type at this version
//   kBadLength      payload did not parse to exactly `length` bytes (a list
//                   count broke its bound or byte budget, a receipt word
//                   overflowed its field, or bytes were left over)
//
// `consumed` tells a streaming caller how many bytes the frame occupied:
// set for every verdict that identified a complete frame (kOk, kBadCrc,
// kFutureVersion, kUnknownType, kBadLength — skip and continue), zero when
// the stream cannot be resynchronised (kTruncated, kBadMagic, kOversize).
//
// Receipt-bearing messages serialise payment::ForwardReceipt through
// receipt_words() — the same canonical field enumeration the MAC and the
// sharded settlement plane's aggregate MAC walk — so the wire image and
// the in-memory struct cannot drift (see payment/receipt.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "transport/wire.hpp"

namespace p2panon::transport {

inline constexpr std::uint32_t kWireMagic = 0x50325041u;  // "P2PA"
inline constexpr std::uint16_t kWireVersion = 1;
inline constexpr std::size_t kHeaderSize = 12;
inline constexpr std::size_t kFrameOverhead = kHeaderSize + 4;  // + trailing CRC
inline constexpr std::size_t kDefaultMaxFrame = 64 * 1024;

enum class DecodeResult : std::uint8_t {
  kOk,
  kTruncated,
  kBadMagic,
  kOversize,
  kFutureVersion,
  kBadCrc,
  kUnknownType,
  kBadLength,
};

[[nodiscard]] const char* to_string(DecodeResult r) noexcept;

/// Append one framed message to `out` (which is reused across calls by both
/// backends, so steady-state encoding does not allocate). Returns the frame
/// size in bytes.
std::size_t encode(const wire::WireMessage& msg, std::vector<std::byte>& out);

/// Classify and (on kOk) parse the frame at the front of `buffer`. See the
/// header comment for the verdict/consumed contract. `out` is written only
/// on kOk.
[[nodiscard]] DecodeResult decode(std::span<const std::byte> buffer, wire::WireMessage& out,
                                  std::size_t& consumed,
                                  std::size_t max_frame = kDefaultMaxFrame);

}  // namespace p2panon::transport
