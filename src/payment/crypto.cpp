#include "payment/crypto.hpp"

#include <bit>
#include <cassert>

namespace p2panon::payment::crypto {

namespace {

/// Extended Euclid on signed 128-bit intermediates (any modulus).
std::optional<u64> modinv_euclid(u64 a, u64 m) noexcept {
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

std::optional<u64> modinv(u64 a, u64 m) noexcept {
  if (m == 0) return std::nullopt;
  if (m == 1) return 0;
  if (!montgomery_modulus(m)) return modinv_euclid(a, m);
  if (a >= m) a %= m;
  if (a == 0) return std::nullopt;
  // Kaliski's almost inverse, each run of halvings done at once by a
  // trailing-zero count. Invariants: a*r = -u*2^k and a*s = v*2^k (mod m),
  // and u*s + v*r = m, so r and s never exceed m. The branch on u > v is
  // unpredictable, so both arms run and a mask picks (`hi` is all ones
  // when u > v).
  u64 u = m, v = a, r = 0, s = 1;
  int k = std::countr_zero(v);
  v >>= k;
  while (u != v) {
    const u64 hi = u64{0} - static_cast<u64>(u > v);
    const u64 diff = ((u - v) & hi) | ((v - u) & ~hi);
    const int t = std::countr_zero(diff);
    const u64 halved = diff >> t;
    const u64 sum = r + s;
    u = (halved & hi) | (u & ~hi);
    v = (v & hi) | (halved & ~hi);
    const u64 r_next = (sum & hi) | ((r << t) & ~hi);
    s = ((s << t) & hi) | (sum & ~hi);
    r = r_next;
    k += t;
  }
  if (u != 1) return std::nullopt;  // u = v = gcd(a, m)
  // a^-1 = -r * 2^-k. REDC divides by 2^64 without dividing: T*2^-64 mod m
  // for T < m*2^64 (m < 2^63 keeps T + q*m below 2^128).
  u64 neg_inv = m;  // Newton: m^-1 mod 2^64, as in Montgomery
  for (int i = 0; i < 5; ++i) neg_inv *= 2 - m * neg_inv;
  neg_inv = ~neg_inv + 1;
  const auto redc = [m, neg_inv](__uint128_t t) {
    const u64 q = static_cast<u64>(t) * neg_inv;
    const u64 x = static_cast<u64>((t + static_cast<__uint128_t>(q) * m) >> 64);
    return x >= m ? x - m : x;
  };
  r = r >= m ? r - m : r;
  u64 inv = r == 0 ? 0 : m - r;
  for (; k >= 64; k -= 64) inv = redc(inv);
  if (k > 0) inv = redc(static_cast<__uint128_t>(inv) << (64 - k));
  return inv;
}

bool is_prime(u64 n) noexcept {
  if (n < 2) return false;
  for (u64 p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL, 23ULL, 29ULL, 31ULL, 37ULL, 41ULL,
                43ULL, 47ULL, 53ULL, 59ULL, 61ULL}) {
    if (n % p == 0) return n == p;
  }
  u64 d = n - 1;
  int s = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++s;
  }
  // Deterministic witness sets: {2, 7, 61} is exact below 4,759,123,141,
  // which holds every ~31-bit key prime; the twelve primes to 37 are exact
  // for all n < 3.3e24. Every candidate is above 61 here, so no witness is
  // a multiple of n. Below 2^63 one Montgomery context serves them all.
  static constexpr std::array<u64, 3> kSmallWitnesses{2, 7, 61};
  static constexpr std::array<u64, 12> kWitnesses{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37};
  const std::span<const u64> witnesses =
      n < 4759123141ULL ? std::span<const u64>{kSmallWitnesses} : std::span<const u64>{kWitnesses};
  const bool mont = montgomery_modulus(n);
  const Montgomery ctx = mont ? Montgomery(n) : Montgomery();
  for (const u64 a : witnesses) {
    u64 x = mont ? powmod(ctx, a, d) : powmod(a, d, n);
    if (x == 1 || x == n - 1) continue;
    bool composite = true;
    for (int i = 0; i < s - 1; ++i) {
      x = mont ? ctx.mulmod(x, x) : mulmod(x, x, n);
      if (x == n - 1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

u64 next_prime(u64 n) noexcept {
  if (n <= 2) return 2;
  if ((n & 1) == 0) ++n;
  while (!is_prime(n)) n += 2;
  return n;
}

RsaKeyPair generate_keypair(sim::rng::Stream& stream) noexcept {
  constexpr u64 e = 65537;
  for (;;) {
    // Two distinct ~31-bit primes; n fits comfortably in 62 bits.
    const u64 p = next_prime((stream.next_u64() & 0x3FFFFFFFULL) | 0x40000000ULL);
    u64 q = next_prime((stream.next_u64() & 0x3FFFFFFFULL) | 0x40000000ULL);
    if (p == q) continue;
    const u64 phi = (p - 1) * (q - 1);
    if (gcd_u64(e, phi) != 1) continue;
    const auto d = modinv(e, phi);
    if (!d) continue;
    RsaKeyPair kp;
    kp.pub.n = p * q;
    kp.pub.e = e;
    kp.pub.mont = Montgomery(kp.pub.n);
    kp.d = *d;
    kp.p = p;
    kp.q = q;
    kp.dp = *d % (p - 1);
    kp.dq = *d % (q - 1);
    kp.mont_p = Montgomery(p);
    kp.mont_q = Montgomery(q);
    kp.q_inv = kp.mont_p.to(*modinv(q, p));  // distinct primes: invertible
    return kp;
  }
}

u64 rsa_sign(const RsaKeyPair& key, u64 message) noexcept {
  assert(message < key.pub.n);
  // m^dp mod p and m^dq mod q, one ladder each, run side by side so the two
  // dependency chains overlap. An exponent bit picks the factor (the base
  // power or 1) with a mask, off the result's chain: the bits are
  // unpredictable, and a branch or a select after the product would sit
  // on it.
  const Montgomery& mp = key.mont_p;
  const Montgomery& mq = key.mont_q;
  u64 rp = mp.one(), rq = mq.one();
  u64 bp = mp.to(message), bq = mq.to(message);
  for (u64 ep = key.dp, eq = key.dq; (ep | eq) != 0; ep >>= 1, eq >>= 1) {
    const u64 take_p = u64{0} - (ep & 1);
    const u64 take_q = u64{0} - (eq & 1);
    rp = mp.mul(rp, (bp & take_p) | (mp.one() & ~take_p));
    rq = mq.mul(rq, (bq & take_q) | (mq.one() & ~take_q));
    bp = mp.mul(bp, bp);
    bq = mq.mul(bq, bq);
  }
  const u64 sp = mp.from(rp);
  const u64 sq = mq.from(rq);
  // Garner: s = sq + q * ((sp - sq) * q^-1 mod p). sq < q < 2p, so one
  // conditional subtraction reduces it mod p.
  const u64 sq_mod_p = sq >= key.p ? sq - key.p : sq;
  const u64 diff = sp >= sq_mod_p ? sp - sq_mod_p : sp + (key.p - sq_mod_p);
  return sq + key.q * mp.mul(diff, key.q_inv);
}

bool rsa_verify(const RsaPublicKey& key, u64 message, u64 signature) noexcept {
  if (!key.valid() || message >= key.n || signature >= key.n) return false;
  assert(key.mont.modulus() == key.n);
  return powmod(key.mont, signature, key.e) == message;
}

Blinding blind(const RsaPublicKey& key, u64 message, sim::rng::Stream& stream) noexcept {
  assert(key.valid() && message < key.n && key.mont.modulus() == key.n);
  for (;;) {
    const u64 r = stream.next_u64() % key.n;
    if (r < 2) continue;
    const auto inv = modinv(r, key.n);
    if (!inv) continue;  // r shares a factor with n (astronomically unlikely)
    Blinding b;
    b.blinded_message = key.mont.mulmod(message, powmod(key.mont, r, key.e));
    b.unblinder = *inv;
    return b;
  }
}

u64 unblind(const RsaPublicKey& key, u64 blind_signature, const Blinding& blinding) noexcept {
  assert(key.mont.modulus() == key.n);
  return key.mont.mulmod(blind_signature, blinding.unblinder);
}

}  // namespace p2panon::payment::crypto
