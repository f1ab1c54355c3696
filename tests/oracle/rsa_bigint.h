// BigInt adapters over the octet-string RSA primitives, so tests can
// state RSA identities on integers. Overloads of rsa::rsaep / rsa::rsadp:
// the input goes in as its minimal big-endian encoding (a negative value
// throws, as i2osp does), the result comes back as an integer.
#pragma once

#include "common/bytes.h"
#include "oracle/bigint.h"
#include "rsa/rsa.h"

namespace omadrm::rsa {

using bigint::BigInt;
using bigint::i2osp;
using bigint::os2ip;

inline BigInt rsaep(const PublicKey& key, const BigInt& m) {
  Bytes out(key.byte_length());
  rsaep(key, i2osp(m, (m.bit_length() + 7) / 8), out);
  return os2ip(out);
}

inline BigInt rsadp(const PrivateKey& key, const BigInt& c) {
  Bytes out(key.byte_length());
  rsadp(key, i2osp(c, (c.bit_length() + 7) / 8), out);
  return os2ip(out);
}

/// A key's numbers as integers.
struct KeyInts {
  explicit KeyInts(const PrivateKey& k)
      : n(os2ip(k.public_key().n())), e(os2ip(k.public_key().e())),
        d(os2ip(k.d())), p(os2ip(k.p())), q(os2ip(k.q())),
        dp(os2ip(k.dp())), dq(os2ip(k.dq())), qinv(os2ip(k.qinv())) {}
  BigInt n, e, d, p, q, dp, dq, qinv;
};

}  // namespace omadrm::rsa
