#include "rsa/rsa.h"

#include <bit>
#include <memory>
#include <utility>

#include "bigint/prime.h"
#include "common/error.h"
#include "rsa/key_ctx.h"

namespace omadrm::rsa {

using omadrm::Error;
using omadrm::ErrorKind;

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

Bytes minimal(ByteView v) {
  const ByteView m = strip_leading_zeros(v);
  return Bytes(m.begin(), m.end());
}

// The modulus of `ctx` as its minimal big-endian magnitude.
Bytes modulus_bytes(const bigint::MontgomeryCtx& ctx) {
  Bytes out(8 * ctx.words());
  bigint::to_be(ctx.modulus(), ctx.words(), out);
  return minimal(out);
}

}  // namespace

PrivateKey generate_key(std::size_t bits, Rng& rng) {
  if (bits < 64 || bits % 2 != 0) {
    throw Error(ErrorKind::kRange, "generate_key: bits must be even, >=64");
  }
  if (bits > 64 * kMaxWords) {
    throw Error(ErrorKind::kRange, "generate_key: at most 4096 bits");
  }
  constexpr Word kE = 65537;
  const std::size_t nh = bigint::words_for_bits(bits / 2);
  for (;;) {
    Limbs p = bigint::generate_prime(bits / 2, rng);
    Limbs q = bigint::generate_prime(bits / 2, rng);
    if (p.w == q.w) continue;
    if (bigint::less_n(p.w.data(), q.w.data(), nh)) std::swap(p, q);

    Limbs n;
    bigint::mul_n(n.w.data(), p.w.data(), nh, q.w.data(), nh);
    n.trim();
    if (n.bit_length() != bits) continue;
    // e is prime, so it is coprime to (p-1)(q-1) unless it divides a
    // factor. p and q are odd: p-1 only clears bit 0.
    Limbs p1 = p, q1 = q;
    p1.w[0] ^= 1;
    q1.w[0] ^= 1;
    if (bigint::mod_word(p1.w.data(), nh, kE) == 0 ||
        bigint::mod_word(q1.w.data(), nh, kE) == 0) {
      continue;
    }

    Limbs phi, d, dp, dq, qinv;
    bigint::mul_n(phi.w.data(), p1.w.data(), nh, q1.w.data(), nh);
    // e^-1 mod (p-1) is d mod (p-1), and the same for q.
    bigint::inverse_of_small(d.w.data(), phi.w.data(), 2 * nh, kE);
    bigint::inverse_of_small(dp.w.data(), p1.w.data(), nh, kE);
    bigint::inverse_of_small(dq.w.data(), q1.w.data(), nh, kE);
    // qInv = q^(p-2) mod p by Fermat, on the constant-time exponentiation.
    const bigint::MontgomeryCtx ctx_p(p.span());
    Limbs p2 = p;
    p2.w[0] -= 2;  // p is odd and above 2^31: no borrow
    ctx_p.mod_exp(qinv.w.data(), q.w.data(), p2.span());
    for (Limbs* l : {&d, &dp, &dq, &qinv}) l->trim();

    const std::uint8_t e[] = {0x01, 0x00, 0x01};  // kE
    return PrivateKey(PublicKey(n.to_be(), e), d.to_be(), p.to_be(),
                      q.to_be(), dp.to_be(), dq.to_be(), qinv.to_be());
  }
}

PublicForm::PublicForm(ByteView n_in, ByteView e_in)
    : n(minimal(n_in)), e(minimal(e_in)) {
  const std::size_t max = bigint::kMaxBytes;
  if (n.empty() || (n.back() & 1) == 0 || n.size() > max || e.size() > max) {
    return;  // unusable: every operation throws
  }
  const Limbs n_limbs(n);
  mont.emplace(n_limbs.span());
  e_limbs = Limbs(e);
}

void PublicForm::exp(std::span<const Word> exponent, ByteView in,
                     std::span<std::uint8_t> out, const char* what) const {
  Word x[kMaxWords], r[kMaxWords];
  load_below(x, mont->modulus(), mont->words(), in, what);
  mont->mod_exp(r, x, exponent);
  store(r, mont->words(), out);
}

PublicKey::PublicKey(ByteView n, ByteView e)
    : form_(std::make_shared<const PublicForm>(n, e)) {}

ByteView PublicKey::n() const {
  return form_ ? ByteView(form_->n) : ByteView();
}
ByteView PublicKey::e() const {
  return form_ ? ByteView(form_->e) : ByteView();
}

std::size_t PublicKey::bit_length() const {
  if (!form_ || form_->n.empty()) return 0;
  return 8 * form_->n.size() -
         static_cast<std::size_t>(std::countl_zero(form_->n[0]));
}

const PublicForm& PublicKey::form() const {
  if (!form_ || !form_->mont) {
    throw Error(ErrorKind::kCrypto, "rsa: key unusable by the RSA path");
  }
  return *form_;
}

PrivateKey::PrivateKey(PublicKey pub, ByteView d) : pub_(std::move(pub)) {
  pub_.form();  // throws kCrypto for an unusable modulus
  auto form = std::make_shared<PrivateForm>();
  form->d = Limbs(d);
  form_ = std::move(form);
}

PrivateKey::PrivateKey(PublicKey pub, ByteView d, ByteView p, ByteView q,
                       ByteView dp, ByteView dq, ByteView qinv)
    : pub_(std::move(pub)) {
  const std::size_t nw = pub_.form().mont->words();
  auto form = std::make_shared<PrivateForm>();
  form->d = Limbs(d);
  form->p.emplace(Limbs(p).span());
  form->q.emplace(Limbs(q).span());
  form->dp = Limbs(dp);
  form->dq = Limbs(dq);
  form->qinv = Limbs(qinv);
  if (form->qinv.n > form->p->words() ||
      form->p->words() + form->q->words() < nw) {
    throw Error(ErrorKind::kCrypto, "rsa: inconsistent CRT key");
  }
  form_ = std::move(form);
}

bool PrivateKey::has_crt() const { return form_ && form_->p.has_value(); }

const PrivateForm& PrivateKey::form() const {
  if (!form_) throw Error(ErrorKind::kCrypto, "rsa: empty private key");
  return *form_;
}

Bytes PrivateKey::d() const { return form_ ? form_->d.to_be() : Bytes(); }
Bytes PrivateKey::p() const {
  return has_crt() ? modulus_bytes(*form_->p) : Bytes();
}
Bytes PrivateKey::q() const {
  return has_crt() ? modulus_bytes(*form_->q) : Bytes();
}
Bytes PrivateKey::dp() const { return has_crt() ? form_->dp.to_be() : Bytes(); }
Bytes PrivateKey::dq() const { return has_crt() ? form_->dq.to_be() : Bytes(); }
Bytes PrivateKey::qinv() const {
  return has_crt() ? form_->qinv.to_be() : Bytes();
}

void rsaep(const PublicKey& key, ByteView m, std::span<std::uint8_t> out) {
  const PublicForm& f = key.form();
  f.exp(f.e_limbs.span(), m, out, "rsaep: message out of range");
}

void rsadp(const PrivateKey& key, ByteView c, std::span<std::uint8_t> out) {
  const PrivateForm& k = key.form();
  const PublicForm& pub = key.public_key().form();
  constexpr const char* kRangeError = "rsadp: ciphertext out of range";
  if (!k.p) return pub.exp(k.d.span(), c, out, kRangeError);

  const bigint::MontgomeryCtx& p = *k.p;
  const bigint::MontgomeryCtx& q = *k.q;
  const std::size_t nn = pub.mont->words(), np = p.words(), nq = q.words();
  Word cw[kMaxWords];
  load_below(cw, pub.mont->modulus(), nn, c, kRangeError);

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
