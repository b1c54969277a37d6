// Toy-strength cryptographic primitives for the payment substrate.
//
// The paper's payment mechanism (described only in its technical report)
// needs blind signatures for unlinkable e-cash, message digests and MACs for
// path receipts. We implement RSA blind signatures over 64-bit moduli
// (two ~31-bit primes), FNV-1a digests, and a keyed MAC that chains one
// SplitMix64 finaliser per 64-bit word. Key sizes are TOY — the point of
// this substrate is protocol structure (blinding, unlinkability,
// double-spend ledgers, receipt verification), not cryptographic strength;
// see DESIGN.md §1.3.
//
// The RSA arithmetic takes exact shortcuts only. A key carries the
// Montgomery contexts of its moduli, built once in generate_keypair; signing
// runs on the CRT over the kept primes p and q; blinding inverts with a
// division-free binary extended GCD. A signature and an inverse are unique
// residues, so each result equals the textbook division ladder bit for bit
// (tests/payment/test_crypto.cpp checks all three against it).
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

/// Montgomery arithmetic modulo an odd m with 1 < m < 2^63 and R = 2^64:
/// each product costs three 64-bit multiplies and no division. The bound on m
/// keeps T + q*m below 2^128 in reduce(). Only the constructor divides, so a
/// context built once serves every later product modulo m.
class Montgomery {
 public:
  constexpr Montgomery() noexcept = default;

  constexpr explicit Montgomery(u64 m) noexcept : m_(m) {
    // Newton's iteration doubles the correct low bits of m^-1 mod 2^64 each
    // step; m is its own inverse mod 8, so five steps reach 64 bits.
    u64 inv = m;
    for (int i = 0; i < 5; ++i) inv *= 2 - m * inv;
    neg_inv_ = ~inv + 1;
    one_ = (~m + 1) % m;  // R mod m
    r2_ = static_cast<u64>((static_cast<__uint128_t>(one_) * one_) % m);
  }

  /// The modulus; 0 for a default-constructed (unusable) context.
  [[nodiscard]] constexpr u64 modulus() const noexcept { return m_; }

  /// x -> x*R mod m, for any 64-bit x: x * R^2 < m * R, so REDC needs no
  /// prior reduction of x.
  [[nodiscard]] constexpr u64 to(u64 x) const noexcept {
    return reduce(static_cast<__uint128_t>(x) * r2_);
  }
  /// x*R mod m -> x.
  [[nodiscard]] constexpr u64 from(u64 x) const noexcept { return reduce(x); }
  /// Product in Montgomery form: (a*R)(b*R) -> a*b*R.
  [[nodiscard]] constexpr u64 mul(u64 a, u64 b) const noexcept {
    return reduce(static_cast<__uint128_t>(a) * b);
  }
  /// Plain (a * b) mod m for a, b < m: two REDCs instead of a 128-bit `%`.
  [[nodiscard]] constexpr u64 mulmod(u64 a, u64 b) const noexcept {
    return reduce(static_cast<__uint128_t>(reduce(static_cast<__uint128_t>(a) * b)) * r2_);
  }
  /// 1 in Montgomery form.
  [[nodiscard]] constexpr u64 one() const noexcept { return one_; }

  friend constexpr bool operator==(const Montgomery&, const Montgomery&) = default;

 private:
  /// REDC: T*R^-1 mod m for T < m*R.
  [[nodiscard]] constexpr u64 reduce(__uint128_t t) const noexcept {
    const u64 q = static_cast<u64>(t) * neg_inv_;
    const u64 r = static_cast<u64>((t + static_cast<__uint128_t>(q) * m_) >> 64);
    return r >= m_ ? r - m_ : r;
  }

  u64 m_ = 0;
  u64 neg_inv_ = 0;  ///< -m^-1 mod 2^64
  u64 one_ = 0;
  u64 r2_ = 0;  ///< R^2 mod m
};

/// True when `m` can take a Montgomery context: odd and in (1, 2^63).
[[nodiscard]] constexpr bool montgomery_modulus(u64 m) noexcept {
  return (m & 1) != 0 && m > 1 && m < (u64{1} << 63);
}

/// (base ^ exp) mod ctx.modulus() by square and multiply in Montgomery form;
/// the canonical residue.
[[nodiscard]] constexpr u64 powmod(const Montgomery& ctx, u64 base, u64 exp) noexcept {
  u64 result = ctx.one();
  u64 b = ctx.to(base);
  while (exp > 0) {
    if (exp & 1) result = ctx.mul(result, b);
    b = ctx.mul(b, b);
    exp >>= 1;
  }
  return ctx.from(result);
}

/// (base ^ exp) mod m. Odd moduli in (1, 2^63) — every RSA modulus here —
/// go through a Montgomery context built for this one call; the others use
/// the 128-bit `%` ladder. Both return the same canonical residue. Callers
/// that reuse a modulus keep its context and call the overload above.
[[nodiscard]] constexpr u64 powmod(u64 base, u64 exp, u64 m) noexcept {
  if (montgomery_modulus(m)) return powmod(Montgomery(m), base, exp);
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

/// Modular inverse of a mod m; nullopt when gcd(a, m) != 1. Odd m in
/// (1, 2^63) — every RSA modulus and prime — runs a binary extended GCD with
/// no division; other m (phi in generate_keypair) run extended Euclid. The
/// inverse is unique in [0, m), so both give the same answer.
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

/// FNV-1a over a sequence of 64-bit words: coin messages and unkeyed folds.
[[nodiscard]] constexpr u64 digest(std::initializer_list<u64> words) noexcept {
  return digest_more(kFnvInit, {words.begin(), words.size()});
}

/// Continue a keyed MAC chain from state `h` over more 64-bit words: one
/// SplitMix64 finaliser per word, with the key added after each. A MAC over
/// a word list assembled piecewise (e.g. the sharded plane's aggregate over
/// receipt_words()) chains through this and equals one flat mac() call.
[[nodiscard]] constexpr u64 mac_more(u64 key, u64 h, std::span<const u64> words) noexcept {
  for (u64 w : words) h = sim::rng::mix64(h ^ w) + key;
  return h;
}

/// Keyed MAC: the chain above started from the key itself (toy-strength
/// like the rest: mix64 is a bijection, so the key is what hides the chain).
[[nodiscard]] constexpr u64 mac(u64 key, std::span<const u64> words) noexcept {
  return mac_more(key, key, words);
}

[[nodiscard]] constexpr u64 mac(u64 key, std::initializer_list<u64> words) noexcept {
  return mac(key, std::span<const u64>{words.begin(), words.size()});
}

struct RsaPublicKey {
  u64 n = 0;  ///< modulus
  u64 e = 0;  ///< public exponent
  /// Montgomery context of n, built by generate_keypair (every key comes
  /// from there; the functions below assert that the context is n's).
  Montgomery mont;

  [[nodiscard]] bool valid() const noexcept { return n > 1 && e > 1; }
  friend bool operator==(const RsaPublicKey&, const RsaPublicKey&) = default;
};

/// The private key in CRT form: d plus the primes, d mod (p-1), d mod (q-1)
/// and q^-1 mod p, with a Montgomery context per prime.
struct RsaKeyPair {
  RsaPublicKey pub;
  u64 d = 0;  ///< private exponent
  u64 p = 0;  ///< first prime
  u64 q = 0;  ///< second prime
  u64 dp = 0;     ///< d mod (p-1)
  u64 dq = 0;     ///< d mod (q-1)
  u64 q_inv = 0;  ///< q^-1 mod p, in Montgomery form mod p
  Montgomery mont_p;
  Montgomery mont_q;
};

/// Generate an RSA keypair with two ~31-bit primes drawn from the stream.
[[nodiscard]] RsaKeyPair generate_keypair(sim::rng::Stream& stream) noexcept;

/// Sign (raw RSA: m^d mod n). Message must be < n. Runs the two half-size
/// exponentiations of the CRT interleaved and recombines them (Garner); the
/// result is the unique residue m^d mod n.
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
