// BigInt adapters over the octet-string RSA primitives, so tests can
// state RSA identities on integers. Overloads of rsa::rsaep / rsa::rsadp:
// the input goes in as its minimal big-endian encoding (a negative value
// throws, as i2osp does), the result comes back as an integer.
#pragma once

#include "bigint/bigint.h"
#include "common/bytes.h"
#include "rsa/rsa.h"

namespace omadrm::rsa {

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

}  // namespace omadrm::rsa
