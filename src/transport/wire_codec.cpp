#include "transport/wire_codec.hpp"

#include <array>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>

#include "transport/crc32.hpp"

namespace p2panon::transport {

namespace {

using namespace wire;

// --- The layout walker -------------------------------------------------------
//
// One Writer and one Reader walk a message's fields(m) list (wire.hpp).
// Field kinds: integers (little-endian, at their declared width),
// payment::ForwardReceipt (its receipt_words() then the MAC — the canonical
// enumeration IS the wire layout), Bounded lists, and any type that has a
// field list of its own (the list elements of OpenSettlementMsg).

template <typename T>
concept HasLayout = requires(T& t) { fields(t); };

template <typename T>
inline constexpr bool kIsBounded = false;
template <typename List, std::size_t Max>
inline constexpr bool kIsBounded<Bounded<List, Max>> = true;

/// Fewest bytes one encoded T occupies (a list counts as empty): the
/// divisor of the byte budget that bounds every list reservation.
template <typename T>
constexpr std::size_t min_wire_size() {
  if constexpr (std::is_integral_v<T>) {
    return sizeof(T);
  } else if constexpr (std::is_same_v<T, payment::ForwardReceipt>) {
    return 8 * (payment::kReceiptWordCount + 1);
  } else if constexpr (kIsBounded<T>) {
    return sizeof(std::uint32_t);
  } else {
    return []<typename... Field>(std::type_identity<std::tuple<Field...>>) {
      return (min_wire_size<std::remove_cvref_t<Field>>() + ...);
    }(std::type_identity<decltype(fields(std::declval<T&>()))>{});
  }
}

class Writer {
 public:
  explicit Writer(std::vector<std::byte>& out) : out_(out) {}

  template <typename T>
    requires std::is_integral_v<T>
  void write(T v) {
    const auto u = static_cast<std::make_unsigned_t<T>>(v);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_.push_back(static_cast<std::byte>((u >> (8 * i)) & 0xFF));
    }
  }

  void write(const payment::ForwardReceipt& r) {
    for (const auto w : payment::receipt_words(r)) write(w);
    write(r.mac);
  }

  template <typename List, std::size_t Max>
  void write(const Bounded<List, Max>& list) {
    write(static_cast<std::uint32_t>(list.items.size()));
    for (const auto& item : list.items) write(item);
  }

  template <HasLayout T>
  void write(const T& m) {
    std::apply([this](const auto&... f) { (write(f), ...); }, fields(m));
  }

 private:
  std::vector<std::byte>& out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) : data_(data) {}

  [[nodiscard]] bool exhausted() const noexcept { return ok_ && pos_ == data_.size(); }

  template <typename T>
    requires std::is_integral_v<T>
  void read(T& v) {
    v = static_cast<T>(get(sizeof(T)));
  }

  /// A receipt word wider than its field would not re-encode to the same
  /// bytes; such a receipt is malformed, not truncated into range.
  void read(payment::ForwardReceipt& r) {
    std::array<payment::crypto::u64, payment::kReceiptWordCount> words{};
    for (auto& w : words) read(w);
    payment::crypto::u64 mac = 0;
    read(mac);
    r = payment::receipt_from_words(words, mac);
    if (payment::receipt_words(r) != words) ok_ = false;
  }

  /// The bound and the byte budget (count x the element's minimum encoded
  /// size must fit the unread payload) are both checked before reserving:
  /// a hostile count cannot reserve more elements than its frame could hold.
  template <typename T, std::size_t Max>
  void read(const Bounded<std::vector<T>, Max>& list) {
    std::uint32_t count = 0;
    read(count);
    if (!ok_ || count > Max || (data_.size() - pos_) / min_wire_size<T>() < count) {
      ok_ = false;
      return;
    }
    list.items.clear();
    list.items.reserve(count);
    for (std::uint32_t i = 0; i < count && ok_; ++i) read(list.items.emplace_back());
  }

  template <HasLayout T>
  void read(T& m) {
    std::apply([this](auto&&... f) { (read(f), ...); }, fields(m));
  }

 private:
  std::uint64_t get(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += n;
    return v;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

template <typename Msg>
DecodeResult parse(std::span<const std::byte> payload, WireMessage& out) {
  Reader r(payload);
  Msg msg;
  r.read(msg);
  if (!r.exhausted()) return DecodeResult::kBadLength;
  out = std::move(msg);
  return DecodeResult::kOk;
}

/// Parse `payload` as the WireMessage alternative whose kType is `type`.
template <std::size_t... I>
DecodeResult parse_as(std::uint16_t type, std::span<const std::byte> payload, WireMessage& out,
                      std::index_sequence<I...>) {
  DecodeResult verdict = DecodeResult::kUnknownType;
  (void)((type == static_cast<std::uint16_t>(std::variant_alternative_t<I, WireMessage>::kType) &&
          (verdict = parse<std::variant_alternative_t<I, WireMessage>>(payload, out), true)) ||
         ...);
  return verdict;
}

/// The little-endian T at byte `at` of a header the caller bounds-checked.
template <typename T>
[[nodiscard]] T read_at(std::span<const std::byte> b, std::size_t at) {
  T v = 0;
  Reader(b.subspan(at, sizeof(T))).read(v);
  return v;
}

}  // namespace

const char* to_string(DecodeResult r) noexcept {
  switch (r) {
    case DecodeResult::kOk: return "ok";
    case DecodeResult::kTruncated: return "truncated";
    case DecodeResult::kBadMagic: return "bad-magic";
    case DecodeResult::kOversize: return "oversize";
    case DecodeResult::kFutureVersion: return "future-version";
    case DecodeResult::kBadCrc: return "bad-crc";
    case DecodeResult::kUnknownType: return "unknown-type";
    case DecodeResult::kBadLength: return "bad-length";
  }
  return "?";
}

std::size_t encode(const wire::WireMessage& msg, std::vector<std::byte>& out) {
  const std::size_t start = out.size();
  Writer w(out);
  w.write(kWireMagic);
  w.write(kWireVersion);
  w.write(static_cast<std::uint16_t>(wire::type_of(msg)));
  w.write(std::uint32_t{0});  // length backpatched below
  std::visit([&w](const auto& m) { w.write(m); }, msg);
  const std::size_t payload_len = out.size() - start - kHeaderSize;
  for (std::size_t i = 0; i < 4; ++i) {
    out[start + 8 + i] = static_cast<std::byte>((payload_len >> (8 * i)) & 0xFF);
  }
  const std::uint32_t crc =
      crc32(std::span<const std::byte>(out.data() + start, out.size() - start));
  w.write(crc);
  return out.size() - start;
}

DecodeResult decode(std::span<const std::byte> buffer, wire::WireMessage& out,
                    std::size_t& consumed, std::size_t max_frame) {
  consumed = 0;
  if (buffer.size() < kHeaderSize) return DecodeResult::kTruncated;
  if (read_at<std::uint32_t>(buffer, 0) != kWireMagic) return DecodeResult::kBadMagic;
  const std::uint16_t version = read_at<std::uint16_t>(buffer, 4);
  const std::uint16_t type = read_at<std::uint16_t>(buffer, 6);
  const std::uint32_t length = read_at<std::uint32_t>(buffer, 8);
  if (static_cast<std::size_t>(length) + kFrameOverhead > max_frame) {
    return DecodeResult::kOversize;
  }
  const std::size_t frame_size = kHeaderSize + length + 4;
  if (buffer.size() < frame_size) return DecodeResult::kTruncated;
  // Version gates before the CRC: a future version may change the checksum
  // algorithm, but never the header layout (that is the versioning contract),
  // so the frame is skippable whole either way.
  if (version > kWireVersion) {
    consumed = frame_size;
    return DecodeResult::kFutureVersion;
  }
  const std::uint32_t want = read_at<std::uint32_t>(buffer, kHeaderSize + length);
  const std::uint32_t got = crc32(buffer.subspan(0, kHeaderSize + length));
  if (want != got) {
    consumed = frame_size;
    return DecodeResult::kBadCrc;
  }
  consumed = frame_size;
  const std::span<const std::byte> payload = buffer.subspan(kHeaderSize, length);
  return parse_as(type, payload, out,
                  std::make_index_sequence<std::variant_size_v<wire::WireMessage>>{});
}

}  // namespace p2panon::transport
