#include "rsa/rsa.h"

#include <memory>

#include "bigint/montgomery.h"
#include "bigint/prime.h"
#include "common/error.h"

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

// A replaced context stays alive until the slot is reset or destroyed:
// a racing reader may still be comparing its modulus.
struct CtxSlot::Node {
  bigint::MontgomeryCtx ctx;
  const Node* replaced;
};

void CtxSlot::reset(const Node* head) noexcept {
  const Node* node = head_.exchange(head);
  while (node != nullptr) {
    const Node* next = node->replaced;
    delete node;
    node = next;
  }
}

const bigint::MontgomeryCtx& CtxSlot::get(const BigInt& m) const {
  const Node* seen = head_.load();
  while (seen == nullptr || !(seen->ctx.modulus() == m)) {
    std::unique_ptr<const Node> fresh(
        new Node{bigint::MontgomeryCtx(m), seen});
    if (head_.compare_exchange_strong(seen, fresh.get())) {
      return fresh.release()->ctx;
    }
    // Lost a race: `seen` is now the winner's node; check it again.
  }
  return seen->ctx;
}

BigInt rsaep(const PublicKey& key, const BigInt& m) {
  if (m.is_negative() || !(m < key.n)) {
    throw Error(ErrorKind::kCrypto, "rsaep: message out of range");
  }
  // A hostile even modulus has no Montgomery form; mod_exp takes it down
  // the generic path.
  if (!key.n.is_odd()) return BigInt::mod_exp(m, key.e, key.n);
  return key.ctx_n.get(key.n).mod_exp(m, key.e);
}

BigInt rsadp(const PrivateKey& key, const BigInt& c) {
  if (c.is_negative() || !(c < key.n)) {
    throw Error(ErrorKind::kCrypto, "rsadp: ciphertext out of range");
  }
  if (!key.has_crt) {
    return BigInt::mod_exp(c, key.d, key.n);
  }
  // CRT on the key's per-prime contexts: both half-size exponentiations
  // reuse their R^2 mod p / mod q across private-key operations.
  BigInt m1 = key.crt_ctx_p.get(key.p).mod_exp(c.mod(key.p), key.dp);
  BigInt m2 = key.crt_ctx_q.get(key.q).mod_exp(c.mod(key.q), key.dq);
  // Garner's recombination: m = m2 + q * (qinv * (m1 - m2) mod p).
  BigInt h = (key.qinv * (m1 - m2)).mod(key.p);
  return m2 + key.q * h;
}

BigInt rsasp1(const PrivateKey& key, const BigInt& m) {
  if (m.is_negative() || !(m < key.n)) {
    throw Error(ErrorKind::kCrypto, "rsasp1: message out of range");
  }
  return rsadp(key, m);
}

BigInt rsavp1(const PublicKey& key, const BigInt& s) {
  if (s.is_negative() || !(s < key.n)) {
    throw Error(ErrorKind::kCrypto, "rsavp1: signature out of range");
  }
  return rsaep(key, s);
}

}  // namespace omadrm::rsa
