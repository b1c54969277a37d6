// Toy-strength cryptographic primitives for the payment substrate.
//
// The paper's payment mechanism (described only in its technical report)
// needs blind signatures for unlinkable e-cash, message digests and MACs for
// path receipts. We implement RSA blind signatures over 64-bit moduli
// (two ~31-bit primes) and FNV-based digests/MACs. Key sizes are TOY — the
// point of this substrate is protocol structure (blinding, unlinkability,
// double-spend ledgers, receipt verification), not cryptographic strength;
// see DESIGN.md §1.3.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>

#include "sim/rng.hpp"

namespace p2panon::payment::crypto {

using u64 = std::uint64_t;

/// (a * b) mod m without overflow.
[[nodiscard]] constexpr u64 mulmod(u64 a, u64 b, u64 m) noexcept {
  return static_cast<u64>((static_cast<__uint128_t>(a) * b) % m);
}

namespace detail {

/// Montgomery arithmetic modulo an odd m with 1 < m < 2^63 and R = 2^64:
/// each product costs three 64-bit multiplies and no division. The bound on m
/// keeps T + q*m below 2^128 in reduce().
class Montgomery {
 public:
  constexpr explicit Montgomery(u64 m) noexcept : m_(m) {
    // Newton's iteration doubles the correct low bits of m^-1 mod 2^64 each
    // step; m is its own inverse mod 8, so five steps reach 64 bits.
    u64 inv = m;
    for (int i = 0; i < 5; ++i) inv *= 2 - m * inv;
    neg_inv_ = ~inv + 1;
    one_ = (~m + 1) % m;  // R mod m
    r2_ = static_cast<u64>((static_cast<__uint128_t>(one_) * one_) % m);
  }

  /// x -> x*R mod m.
  [[nodiscard]] constexpr u64 to(u64 x) const noexcept {
    return reduce(static_cast<__uint128_t>(x % m_) * r2_);
  }
  /// x*R mod m -> x.
  [[nodiscard]] constexpr u64 from(u64 x) const noexcept { return reduce(x); }
  [[nodiscard]] constexpr u64 mul(u64 a, u64 b) const noexcept {
    return reduce(static_cast<__uint128_t>(a) * b);
  }
  /// 1 in Montgomery form.
  [[nodiscard]] constexpr u64 one() const noexcept { return one_; }

 private:
  /// REDC: T*R^-1 mod m for T < m*R.
  [[nodiscard]] constexpr u64 reduce(__uint128_t t) const noexcept {
    const u64 q = static_cast<u64>(t) * neg_inv_;
    const u64 r = static_cast<u64>((t + static_cast<__uint128_t>(q) * m_) >> 64);
    return r >= m_ ? r - m_ : r;
  }

  u64 m_;
  u64 neg_inv_ = 0;  ///< -m^-1 mod 2^64
  u64 one_ = 0;
  u64 r2_ = 0;  ///< R^2 mod m
};

}  // namespace detail

/// (base ^ exp) mod m. Odd moduli in (1, 2^63) — every RSA modulus here —
/// square and multiply in Montgomery form; the others use the 128-bit `%`
/// ladder. Both return the same canonical residue.
[[nodiscard]] constexpr u64 powmod(u64 base, u64 exp, u64 m) noexcept {
  if ((m & 1) != 0 && m > 1 && m < (u64{1} << 63)) {
    const detail::Montgomery mont(m);
    u64 result = mont.one();
    u64 b = mont.to(base);
    while (exp > 0) {
      if (exp & 1) result = mont.mul(result, b);
      b = mont.mul(b, b);
      exp >>= 1;
    }
    return mont.from(result);
  }
  u64 result = 1 % m;
  base %= m;
  while (exp > 0) {
    if (exp & 1) result = mulmod(result, base, m);
    base = mulmod(base, base, m);
    exp >>= 1;
  }
  return result;
}

[[nodiscard]] constexpr u64 gcd_u64(u64 a, u64 b) noexcept {
  while (b != 0) {
    const u64 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

/// Modular inverse of a mod m; nullopt when gcd(a, m) != 1.
[[nodiscard]] std::optional<u64> modinv(u64 a, u64 m) noexcept;

/// Deterministic Miller-Rabin, exact for all 64-bit inputs.
[[nodiscard]] bool is_prime(u64 n) noexcept;

/// Next prime >= n (n must leave room below 2^63).
[[nodiscard]] u64 next_prime(u64 n) noexcept;

inline constexpr u64 kFnvInit = 0xCBF29CE484222325ULL;

/// Continue an FNV-1a fold from state `h` over more 64-bit words. digest()
/// below is digest_more(kFnvInit, words) — callers that fold a canonical
/// field enumeration (e.g. receipt_words()) chain through this so the byte
/// stream is identical to one flat digest({...}) call.
[[nodiscard]] constexpr u64 digest_more(u64 h, std::span<const u64> words) noexcept {
  for (u64 w : words) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

/// FNV-1a over a sequence of 64-bit words; the digest/MAC primitive.
[[nodiscard]] constexpr u64 digest(std::initializer_list<u64> words) noexcept {
  return digest_more(kFnvInit, {words.begin(), words.size()});
}

/// Keyed MAC: digest with the secret key mixed in first and last
/// (sponge-ish sandwich; toy-strength like the rest).
[[nodiscard]] constexpr u64 mac(u64 key, std::span<const u64> words) noexcept {
  u64 h = digest({key});
  for (u64 w : words) h = digest({h, w});
  return digest({h, key});
}

[[nodiscard]] constexpr u64 mac(u64 key, std::initializer_list<u64> words) noexcept {
  return mac(key, std::span<const u64>{words.begin(), words.size()});
}

struct RsaPublicKey {
  u64 n = 0;  ///< modulus
  u64 e = 0;  ///< public exponent

  [[nodiscard]] bool valid() const noexcept { return n > 1 && e > 1; }
  friend bool operator==(const RsaPublicKey&, const RsaPublicKey&) = default;
};

struct RsaKeyPair {
  RsaPublicKey pub;
  u64 d = 0;  ///< private exponent
};

/// Generate an RSA keypair with two ~31-bit primes drawn from the stream.
[[nodiscard]] RsaKeyPair generate_keypair(sim::rng::Stream& stream) noexcept;

/// Sign (raw RSA: m^d mod n). Message must be < n.
[[nodiscard]] u64 rsa_sign(const RsaKeyPair& key, u64 message) noexcept;

/// Verify sig^e mod n == message.
[[nodiscard]] bool rsa_verify(const RsaPublicKey& key, u64 message, u64 signature) noexcept;

/// Client-side blinding state for one blind-signature round.
struct Blinding {
  u64 blinded_message = 0;  ///< m * r^e mod n (what the signer sees)
  u64 unblinder = 0;        ///< r^{-1} mod n
};

/// Blind `message` under `key` using randomness from `stream`.
/// message must be < key.n.
[[nodiscard]] Blinding blind(const RsaPublicKey& key, u64 message,
                             sim::rng::Stream& stream) noexcept;

/// Remove the blinding from a signature over a blinded message.
[[nodiscard]] u64 unblind(const RsaPublicKey& key, u64 blind_signature,
                          const Blinding& blinding) noexcept;

}  // namespace p2panon::payment::crypto
