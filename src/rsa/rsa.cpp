#include "rsa/rsa.h"

#include <memory>

#include "bigint/prime.h"
#include "common/error.h"
#include "rsa/key_ctx.h"

namespace omadrm::rsa {

using omadrm::Error;
using omadrm::ErrorKind;

PrivateKey generate_key(std::size_t bits, Rng& rng) {
  if (bits < 64 || bits % 2 != 0) {
    throw Error(ErrorKind::kRange, "generate_key: bits must be even, >=64");
  }
  const BigInt e(std::uint64_t{65537});
  const BigInt one(std::uint64_t{1});
  for (;;) {
    BigInt p = bigint::generate_prime(bits / 2, rng);
    BigInt q = bigint::generate_prime(bits / 2, rng);
    if (p == q) continue;
    if (q > p) std::swap(p, q);  // canonical order: p > q

    BigInt n = p * q;
    if (n.bit_length() != bits) continue;
    BigInt phi = (p - one) * (q - one);
    if (!(BigInt::gcd(e, phi) == one)) continue;

    PrivateKey key;
    key.n = n;
    key.e = e;
    key.d = BigInt::mod_inverse(e, phi);
    key.p = p;
    key.q = q;
    key.dp = key.d.mod(p - one);
    key.dq = key.d.mod(q - one);
    key.qinv = BigInt::mod_inverse(q, p);
    key.has_crt = true;
    return key;
  }
}

Bytes i2osp(const BigInt& x, std::size_t len) {
  if (x.is_negative()) {
    throw Error(ErrorKind::kRange, "i2osp: negative integer");
  }
  if (x.bit_length() > len * 8) {
    throw Error(ErrorKind::kRange, "i2osp: integer too large for length");
  }
  return x.to_bytes_be(len);
}

BigInt os2ip(ByteView data) { return BigInt::from_bytes_be(data); }

Limbs::Limbs(const BigInt& v) : n(bigint::words_for_bits(v.bit_length())) {
  if (n > kMaxWords) throw Error(ErrorKind::kCrypto, "rsa: key too wide");
  bigint::from_bigint(w.data(), n, v);
}

namespace {

// `in` as nw words below the modulus m, or kCrypto naming `what`.
void load_below(Word* out, const Word* m, std::size_t nw, ByteView in,
                const char* what) {
  if (!bigint::from_be(out, nw, in) || !bigint::less_n(out, m, nw)) {
    throw Error(ErrorKind::kCrypto, what);
  }
}

void store(const Word* w, std::size_t nw, std::span<std::uint8_t> out) {
  if (!bigint::to_be(w, nw, out)) {
    throw Error(ErrorKind::kRange, "rsa: result does not fit the output");
  }
}

bool same_modulus(const bigint::MontgomeryCtx& ctx, const BigInt& m) {
  return bigint::equals_bigint(ctx.modulus(), ctx.words(), m);
}

}  // namespace

bool PublicCtx::matches(const BigInt& modulus, const BigInt& exponent) const {
  return same_modulus(n, modulus) && e == exponent;
}

void PublicCtx::exp(ByteView in, std::span<std::uint8_t> out,
                    const char* what) const {
  Word x[kMaxWords], r[kMaxWords];
  load_below(x, n.modulus(), n.words(), in, what);
  n.mod_exp(r, x, e.span());
  store(r, n.words(), out);
}

PrivateCtx::PrivateCtx(const PrivateKey& key) : n(key.n) {
  if (!key.has_crt) {
    plain.emplace(key.n, key.d);
    return;
  }
  p.emplace(key.p);
  q.emplace(key.q);
  dp = Limbs(key.dp);
  dq = Limbs(key.dq);
  qinv = Limbs(key.qinv);
  if (qinv.n > p->words() || p->words() + q->words() < n.n) {
    throw Error(ErrorKind::kCrypto, "rsa: inconsistent CRT key");
  }
}

bool PrivateCtx::matches(const PrivateKey& key) const {
  if (!(n == key.n) || key.has_crt != p.has_value()) return false;
  if (plain) return plain->matches(key.n, key.d);
  return same_modulus(*p, key.p) && same_modulus(*q, key.q) &&
         dp == key.dp && dq == key.dq && qinv == key.qinv;
}

// A replaced form stays alive until the slot is reset or destroyed: a
// racing reader may still be comparing it with its key.
template <class Ctx>
struct CtxSlot<Ctx>::Node {
  Ctx ctx;
  const Node* replaced;
};

template <class Ctx>
void CtxSlot<Ctx>::reset(const Node* head) noexcept {
  const Node* node = head_.exchange(head);
  while (node != nullptr) {
    const Node* next = node->replaced;
    delete node;
    node = next;
  }
}

template <class Ctx>
template <class Key>
const Ctx& CtxSlot<Ctx>::get(const Key& key) const {
  const Node* seen = head_.load();
  while (seen == nullptr || !seen->ctx.matches(key)) {
    std::unique_ptr<const Node> fresh(new Node{Ctx(key), seen});
    if (head_.compare_exchange_strong(seen, fresh.get())) {
      return fresh.release()->ctx;
    }
    // Lost a race: `seen` is now the winner's node; check it again.
  }
  return seen->ctx;
}

template class CtxSlot<PublicCtx>;
template class CtxSlot<PrivateCtx>;
template const PublicCtx& CtxSlot<PublicCtx>::get(const PublicKey&) const;
template const PrivateCtx& CtxSlot<PrivateCtx>::get(const PrivateKey&) const;

void rsaep(const PublicKey& key, ByteView m, std::span<std::uint8_t> out) {
  key.ctx.get(key).exp(m, out, "rsaep: message out of range");
}

void rsadp(const PrivateKey& key, ByteView c, std::span<std::uint8_t> out) {
  const PrivateCtx& k = key.ctx.get(key);
  constexpr const char* kRangeError = "rsadp: ciphertext out of range";
  if (k.plain) return k.plain->exp(c, out, kRangeError);

  const bigint::MontgomeryCtx& p = *k.p;
  const bigint::MontgomeryCtx& q = *k.q;
  const std::size_t nn = k.n.n, np = p.words(), nq = q.words();
  Word cw[kMaxWords];
  load_below(cw, k.n.w.data(), nn, c, kRangeError);

  // Both halves on the key's contexts, through one call, so an IFMA host
  // runs them as one dual exponentiation.
  Word cp[kMaxWords], cq[kMaxWords], m1[kMaxWords], m2[kMaxWords];
  p.reduce(cp, cw, nn);
  q.reduce(cq, cw, nn);
  bigint::MontgomeryCtx::mod_exp_pair(p, m1, cp, k.dp.span(), q, m2, cq,
                                      k.dq.span());

  // Garner's recombination, m = m2 + q h with h = qInv (m1 - m2) mod p:
  // the difference wraps into [0, p) by a masked addition of p, and
  // (qInv t R^-1) R is h.
  Word t[kMaxWords], u[kMaxWords];
  p.reduce(t, m2, nq);
  const Word borrow = bigint::sub_n(t, m1, t, np);
  bigint::add_masked_n(t, t, p.modulus(), 0 - borrow, np);
  p.mul(u, k.qinv.w.data(), t);
  p.to_mont(t, u);
  Word m[2 * kMaxWords];
  bigint::mul_n(m, q.modulus(), nq, t, np);
  Word carry = bigint::add_n(m, m, m2, nq);
  for (std::size_t j = nq; j < nq + np; ++j) {
    m[j] += carry;
    carry = m[j] < carry;
  }
  store(m, nq + np, out);
}

}  // namespace omadrm::rsa
