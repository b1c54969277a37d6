#include "payment/crypto.hpp"

#include <gtest/gtest.h>

#include <set>

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
