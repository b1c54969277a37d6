#include "payment/crypto.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

using namespace p2panon::payment::crypto;
namespace rng = p2panon::sim::rng;

TEST(ModArith, MulmodMatchesSmallCases) {
  EXPECT_EQ(mulmod(7, 9, 13), 63 % 13);
  EXPECT_EQ(mulmod(0, 5, 7), 0u);
}

TEST(ModArith, MulmodNoOverflow) {
  const u64 big = 0xFFFFFFFFFFFFULL;  // ~2^48
  const u64 m = (1ULL << 61) - 1;
  // (big * big) overflows 64 bits; verify against __int128 reference.
  const u64 expect = static_cast<u64>((static_cast<__uint128_t>(big) * big) % m);
  EXPECT_EQ(mulmod(big, big, m), expect);
}

TEST(ModArith, PowmodKnownValues) {
  EXPECT_EQ(powmod(2, 10, 1000), 24u);
  EXPECT_EQ(powmod(3, 0, 7), 1u);
  EXPECT_EQ(powmod(10, 1, 7), 3u);
}

TEST(ModArith, PowmodFermat) {
  // a^(p-1) = 1 mod p for prime p, gcd(a, p) = 1.
  const u64 p = 1000000007ULL;
  for (u64 a : {2ULL, 12345ULL, 999999999ULL}) {
    EXPECT_EQ(powmod(a, p - 1, p), 1u);
  }
}

namespace {

/// The plain square-and-multiply ladder with a 128-bit `%` per product.
u64 powmod_by_division(u64 base, u64 exp, u64 m) {
  u64 result = 1 % m;
  base %= m;
  while (exp > 0) {
    if (exp & 1) result = static_cast<u64>((static_cast<__uint128_t>(result) * base) % m);
    base = static_cast<u64>((static_cast<__uint128_t>(base) * base) % m);
    exp >>= 1;
  }
  return result;
}

/// A uniform value of `bits` random bits (top bit set when bits > 0).
u64 random_width(rng::Stream& stream, unsigned bits) {
  if (bits == 0) return 0;
  const u64 v = stream.next_u64() >> (64 - bits);
  return v | (u64{1} << (bits - 1));
}

}  // namespace

TEST(ModArith, MontgomeryPowmodMatchesDivisionLadder) {
  // Odd moduli of every width from 2 to 63 bits take the Montgomery path;
  // bases are full 64-bit values (reduced first) and exponents of every
  // width. The edges: the smallest odd modulus, the largest odd modulus
  // below 2^63, one even modulus and m = 1 (both on the ladder).
  rng::Stream stream(0x5eed);
  std::size_t mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const auto bits = static_cast<unsigned>(2 + stream.below(62));
    const u64 m = random_width(stream, bits) | 1;
    const u64 base = stream.next_u64();
    const u64 exp = random_width(stream, static_cast<unsigned>(stream.below(65)));
    if (powmod(base, exp, m) != powmod_by_division(base, exp, m)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);

  for (u64 m : {u64{3}, (u64{1} << 63) - 25, (u64{1} << 62) + 2, u64{1}}) {
    for (int i = 0; i < 2000; ++i) {
      const u64 base = stream.next_u64();
      const u64 exp = stream.next_u64() >> stream.below(64);
      ASSERT_EQ(powmod(base, exp, m), powmod_by_division(base, exp, m))
          << "m " << m << " base " << base << " exp " << exp;
    }
    EXPECT_EQ(powmod(m - 1, 0, m), 1 % m);
    EXPECT_EQ(powmod(0, 5, m), 0u);
  }
}

TEST(ModArith, CachedContextPowmodMatchesDivisionLadder) {
  // One context per modulus serves many exponentiations and products, as a
  // denomination key's does; every result equals the division ladder's.
  rng::Stream stream(0xc0de);
  for (int k = 0; k < 2000; ++k) {
    const auto bits = static_cast<unsigned>(2 + stream.below(62));
    const u64 m = random_width(stream, bits) | 1;
    const Montgomery ctx(m);
    ASSERT_EQ(ctx.modulus(), m);
    for (int i = 0; i < 50; ++i) {
      const u64 base = stream.next_u64();
      const u64 exp = random_width(stream, static_cast<unsigned>(stream.below(65)));
      ASSERT_EQ(powmod(ctx, base, exp), powmod_by_division(base, exp, m))
          << "m " << m << " base " << base << " exp " << exp;
      const u64 a = base % m;
      const u64 b = stream.next_u64() % m;
      ASSERT_EQ(ctx.mulmod(a, b), mulmod(a, b, m)) << "m " << m << " a " << a << " b " << b;
    }
  }
}

namespace {

/// The extended Euclid on 128-bit intermediates that modinv ran for every
/// modulus before the binary extended GCD.
std::optional<u64> modinv_by_euclid(u64 a, u64 m) {
  __int128 t = 0, new_t = 1;
  __int128 r = m, new_r = a % m;
  while (new_r != 0) {
    const __int128 q = r / new_r;
    const __int128 tmp_t = t - q * new_t;
    t = new_t;
    new_t = tmp_t;
    const __int128 tmp_r = r - q * new_r;
    r = new_r;
    new_r = tmp_r;
  }
  if (r != 1) return std::nullopt;
  if (t < 0) t += m;
  return static_cast<u64>(t);
}

}  // namespace

TEST(ModArith, BinaryModinvMatchesEuclid) {
  rng::Stream stream(0x1a7);
  std::size_t mismatches = 0;
  std::size_t invertible = 0;
  for (int i = 0; i < 200'000; ++i) {
    const auto bits = static_cast<unsigned>(2 + stream.below(63));
    const u64 m = random_width(stream, bits) | (stream.bernoulli(0.9) ? 1 : 0);
    const u64 a = stream.bernoulli(0.1) ? stream.next_u64() : stream.next_u64() % m;
    const auto want = modinv_by_euclid(a, m);
    if (modinv(a, m) != want) ++mismatches;
    invertible += want.has_value();
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(invertible, 100'000u);  // both outcomes ran in bulk

  // Edges: a in {0, 1, m-1}; non-invertible a (a multiple of a factor of
  // m); moduli near 2^63 on both sides, the largest odd 64-bit value, the
  // smallest moduli and even moduli (the Euclid branch).
  const u64 big = u64{1} << 63;
  for (u64 m : {u64{1}, u64{2}, u64{3}, u64{9}, u64{15}, u64{1000000007}, big - 25, big - 1,
                big + 1, big + 3, ~u64{0}, ~u64{0} - 58, u64{3} * 1000000007,
                u64{2147483647} * 2147483629}) {
    for (u64 a : {u64{0}, u64{1}, u64{2}, m - 1, m, m + 1, u64{3}, u64{6}, u64{2147483647},
                  u64{1000000007} * 2, ~u64{0}}) {
      EXPECT_EQ(modinv(a, m), modinv_by_euclid(a, m)) << "a " << a << " m " << m;
    }
    for (int i = 0; i < 2000; ++i) {
      const u64 a = stream.next_u64();
      ASSERT_EQ(modinv(a, m), modinv_by_euclid(a, m)) << "a " << a << " m " << m;
    }
  }
  EXPECT_FALSE(modinv(3 * 5, 3 * 1000000007ULL).has_value());
  EXPECT_FALSE(modinv(2147483647ULL * 7, 2147483647ULL * 2147483629ULL).has_value());
  EXPECT_EQ(modinv(1, big - 25), 1u);
  EXPECT_EQ(modinv(big - 26, big - 25), big - 26);  // (m-1)^2 = 1
}

TEST(ModArith, ModinvRoundTrip) {
  const u64 m = 1000000007ULL;
  for (u64 a : {2ULL, 3ULL, 65537ULL, 999999999ULL}) {
    auto inv = modinv(a, m);
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ(mulmod(a, *inv, m), 1u);
  }
}

TEST(ModArith, ModinvNonCoprimeFails) {
  EXPECT_FALSE(modinv(6, 9).has_value());
  EXPECT_FALSE(modinv(10, 100).has_value());
}

TEST(Primality, KnownPrimesAndComposites) {
  for (u64 p : {2ULL, 3ULL, 5ULL, 7919ULL, 1000000007ULL, 2147483647ULL}) {
    EXPECT_TRUE(is_prime(p)) << p;
  }
  for (u64 c : {0ULL, 1ULL, 4ULL, 561ULL /*Carmichael*/, 1000000007ULL * 3ULL,
                2147483647ULL * 2147483647ULL}) {
    EXPECT_FALSE(is_prime(c)) << c;
  }
}

TEST(Primality, MatchesTrialDivision) {
  // Below 4,759,123,141 is_prime runs the witness set {2, 7, 61}; above it
  // the twelve primes to 37. Random candidates on both sides, and the
  // boundary itself (48781 * 97561, the first strong pseudoprime to all of
  // 2, 7 and 61), agree with trial division by every prime below 2^17.
  std::vector<u64> primes;
  std::vector<bool> composite(1 << 17, false);
  for (u64 i = 2; i < composite.size(); ++i) {
    if (composite[i]) continue;
    primes.push_back(i);
    for (u64 j = i * i; j < composite.size(); j += i) composite[j] = true;
  }
  const auto by_division = [&primes](u64 n) {
    if (n < 2) return false;
    for (const u64 p : primes) {
      if (p * p > n) return true;
      if (n % p == 0) return n == p;
    }
    return true;
  };
  EXPECT_FALSE(is_prime(4759123141ULL));
  rng::Stream stream(0x9e1);
  std::size_t mismatches = 0;
  std::size_t found = 0;
  for (int i = 0; i < 60'000; ++i) {
    const u64 n = stream.below(u64{1} << 34) | (i % 2 == 0 ? 1 : 0);
    const bool want = by_division(n);
    if (is_prime(n) != want) ++mismatches;
    found += want;
  }
  for (u64 n = 4759123141ULL - 2000; n < 4759123141ULL + 2000; ++n) {
    if (is_prime(n) != by_division(n)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(found, 1000u);
}

TEST(Primality, WideCandidatesTakeTheDivisionLadder) {
  // At 2^63 and above no Montgomery context exists; Miller-Rabin runs on
  // the 128-bit `%` ladder and stays exact.
  EXPECT_TRUE(is_prime(18446744073709551557ULL));   // 2^64 - 59, the largest
  EXPECT_TRUE(is_prime(9223372036854775837ULL));    // the first above 2^63
  EXPECT_FALSE(is_prime(9223372036854775835ULL));   // divisible by 5
  EXPECT_FALSE(is_prime(4294967291ULL * 4294967279ULL));  // two 32-bit primes
  EXPECT_TRUE(is_prime(9223372036854775783ULL));    // the last below 2^63
}

TEST(Primality, NextPrimeIsPrimeAndGeq) {
  for (u64 n : {10ULL, 100ULL, 1ULL << 30, (1ULL << 31) + 12345ULL}) {
    const u64 p = next_prime(n);
    EXPECT_GE(p, n);
    EXPECT_TRUE(is_prime(p));
  }
}

TEST(Digest, DeterministicAndSensitive) {
  EXPECT_EQ(digest({1, 2, 3}), digest({1, 2, 3}));
  EXPECT_NE(digest({1, 2, 3}), digest({1, 2, 4}));
  EXPECT_NE(digest({1, 2, 3}), digest({3, 2, 1}));
  EXPECT_NE(digest({}), digest({0}));
}

TEST(Mac, KeyedAndTamperEvident) {
  EXPECT_EQ(mac(42, {7, 8}), mac(42, {7, 8}));
  EXPECT_NE(mac(42, {7, 8}), mac(43, {7, 8}));
  EXPECT_NE(mac(42, {7, 8}), mac(42, {7, 9}));
}

TEST(Rsa, KeypairSignVerifyRoundTrip) {
  auto stream = rng::Stream(1).child("rsa");
  const RsaKeyPair kp = generate_keypair(stream);
  ASSERT_TRUE(kp.pub.valid());
  for (u64 m : {u64{1}, u64{42}, kp.pub.n - 1, kp.pub.n / 2}) {
    const u64 sig = rsa_sign(kp, m);
    EXPECT_TRUE(rsa_verify(kp.pub, m, sig));
  }
}

TEST(Rsa, CrtSignMatchesPlainPowmod) {
  // CRT signing returns the unique residue m^d mod n: across many keys and
  // messages it equals the plain exponentiation and the division ladder,
  // and so does every CRT edge — m = 0, 1, n-1 and multiples of p or q,
  // where one half of the CRT is 0.
  rng::Stream stream(0x5167);
  std::size_t mismatches = 0;
  for (int k = 0; k < 2000; ++k) {
    auto key_stream = stream.child("key", static_cast<u64>(k));
    const RsaKeyPair kp = generate_keypair(key_stream);
    ASSERT_EQ(kp.p * kp.q, kp.pub.n);
    ASSERT_EQ(kp.pub.mont.modulus(), kp.pub.n);
    for (int i = 0; i < 20; ++i) {
      const u64 m = stream.next_u64() % kp.pub.n;
      if (rsa_sign(kp, m) != powmod(m, kp.d, kp.pub.n)) ++mismatches;
    }
    for (u64 m : {u64{0}, u64{1}, kp.pub.n - 1, kp.p, kp.q, kp.p * 2, kp.q * (kp.p - 1)}) {
      ASSERT_EQ(rsa_sign(kp, m), powmod_by_division(m, kp.d, kp.pub.n))
          << "key " << k << " m " << m;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Rsa, VerifyRejectsWrongMessage) {
  auto stream = rng::Stream(2).child("rsa");
  const RsaKeyPair kp = generate_keypair(stream);
  const u64 sig = rsa_sign(kp, 1000);
  EXPECT_FALSE(rsa_verify(kp.pub, 1001, sig));
}

TEST(Rsa, VerifyRejectsForgedSignature) {
  auto stream = rng::Stream(3).child("rsa");
  const RsaKeyPair kp = generate_keypair(stream);
  EXPECT_FALSE(rsa_verify(kp.pub, 1000, 999999));
}

TEST(Rsa, VerifyRejectsWrongKey) {
  auto s1 = rng::Stream(4).child("rsa");
  auto s2 = rng::Stream(5).child("rsa");
  const RsaKeyPair kp1 = generate_keypair(s1);
  const RsaKeyPair kp2 = generate_keypair(s2);
  const u64 m = 777 % kp1.pub.n;
  const u64 sig = rsa_sign(kp1, m);
  EXPECT_FALSE(rsa_verify(kp2.pub, m % kp2.pub.n, sig % kp2.pub.n));
}

TEST(Rsa, DistinctStreamsDistinctKeys) {
  auto s1 = rng::Stream(6).child("rsa");
  auto s2 = rng::Stream(7).child("rsa");
  EXPECT_NE(generate_keypair(s1).pub.n, generate_keypair(s2).pub.n);
}

TEST(BlindSignature, UnblindedSignatureVerifies) {
  auto key_stream = rng::Stream(8).child("rsa");
  const RsaKeyPair kp = generate_keypair(key_stream);
  auto blind_stream = rng::Stream(9).child("blind");
  for (int i = 0; i < 20; ++i) {
    const u64 message = (1234567ULL * static_cast<u64>(i + 1)) % kp.pub.n;
    const Blinding b = blind(kp.pub, message, blind_stream);
    // Signer sees only the blinded message.
    const u64 blind_sig = rsa_sign(kp, b.blinded_message);
    const u64 sig = unblind(kp.pub, blind_sig, b);
    EXPECT_TRUE(rsa_verify(kp.pub, message, sig));
  }
}

TEST(BlindSignature, BlindedMessageHidesOriginal) {
  auto key_stream = rng::Stream(10).child("rsa");
  const RsaKeyPair kp = generate_keypair(key_stream);
  auto blind_stream = rng::Stream(11).child("blind");
  const u64 message = 424242 % kp.pub.n;
  const Blinding b = blind(kp.pub, message, blind_stream);
  EXPECT_NE(b.blinded_message, message);
}

TEST(BlindSignature, SameMessageDifferentBlindings) {
  // Unlinkability basis: two blindings of the same message look different.
  auto key_stream = rng::Stream(12).child("rsa");
  const RsaKeyPair kp = generate_keypair(key_stream);
  auto blind_stream = rng::Stream(13).child("blind");
  const u64 message = 99999 % kp.pub.n;
  const Blinding b1 = blind(kp.pub, message, blind_stream);
  const Blinding b2 = blind(kp.pub, message, blind_stream);
  EXPECT_NE(b1.blinded_message, b2.blinded_message);
}
