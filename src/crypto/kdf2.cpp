#include "crypto/kdf2.h"

#include "common/error.h"
#include "crypto/sha1.h"

namespace omadrm::crypto {

Bytes kdf2_sha1(ByteView z, std::size_t out_len, ByteView other_info) {
  if (out_len == 0) return {};
  // Counter overflow is unreachable for sane lengths; guard anyway.
  if (out_len > Sha1::kDigestSize * 0xffffffffull) {
    throw Error(ErrorKind::kRange, "kdf2: output too long");
  }
  Bytes out;
  out.reserve(out_len);
  std::uint32_t counter = 1;
  while (out.size() < out_len) {
    Sha1 h;
    h.update(z);
    std::uint8_t ctr[4];
    store_be32(counter++, ctr);
    h.update(ByteView(ctr, 4));
    h.update(other_info);
    std::uint8_t t[Sha1::kDigestSize];
    h.finish_into(t);
    std::size_t take = std::min(sizeof t, out_len - out.size());
    out.insert(out.end(), t, t + take);
  }
  return out;
}

}  // namespace omadrm::crypto
