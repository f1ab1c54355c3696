#include "crypto/aes.h"

#include "common/error.h"
#include "crypto/aes_accel.h"

namespace omadrm::crypto {

namespace {

// ---- GF(2^8) arithmetic (reduction polynomial x^8+x^4+x^3+x+1) ----------

std::uint8_t xtime(std::uint8_t a) {
  return static_cast<std::uint8_t>((a << 1) ^ ((a >> 7) * 0x1b));
}

std::uint8_t gmul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  while (b) {
    if (b & 1) p ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return p;
}

// All lookup tables, computed once from first principles.
struct Tables {
  std::uint8_t sbox[256];
  std::uint8_t inv_sbox[256];
  std::uint32_t te[4][256];  // encryption T-tables
  std::uint32_t td[4][256];  // decryption T-tables (equivalent inverse)
  std::uint8_t rcon[11];

  Tables() {
    // S-box: multiplicative inverse followed by the affine transform.
    // Build the inverse table via a log/antilog walk over generator 3.
    std::uint8_t pow3[256];
    std::uint8_t log3[256] = {};
    std::uint8_t x = 1;
    for (int i = 0; i < 255; ++i) {
      pow3[i] = x;
      log3[x] = static_cast<std::uint8_t>(i);
      x = static_cast<std::uint8_t>(x ^ xtime(x));  // multiply by 3
    }
    auto inv = [&](std::uint8_t a) -> std::uint8_t {
      if (a == 0) return 0;
      return pow3[(255 - log3[a]) % 255];
    };
    for (int i = 0; i < 256; ++i) {
      std::uint8_t v = inv(static_cast<std::uint8_t>(i));
      std::uint8_t s = 0x63;
      for (int b = 0; b < 8; ++b) {
        std::uint8_t bit = static_cast<std::uint8_t>(
            ((v >> b) ^ (v >> ((b + 4) % 8)) ^ (v >> ((b + 5) % 8)) ^
             (v >> ((b + 6) % 8)) ^ (v >> ((b + 7) % 8))) &
            1);
        s = static_cast<std::uint8_t>(s ^ (bit << b));
      }
      sbox[i] = s;
      inv_sbox[s] = static_cast<std::uint8_t>(i);
    }

    // T-tables. te0[a] packs MixColumns of the substituted byte in the
    // first column position; te1..te3 are byte rotations of te0.
    for (int i = 0; i < 256; ++i) {
      std::uint8_t e = sbox[i];
      std::uint32_t w = (static_cast<std::uint32_t>(gmul(e, 2)) << 24) |
                        (static_cast<std::uint32_t>(e) << 16) |
                        (static_cast<std::uint32_t>(e) << 8) |
                        static_cast<std::uint32_t>(gmul(e, 3));
      te[0][i] = w;
      te[1][i] = (w >> 8) | (w << 24);
      te[2][i] = (w >> 16) | (w << 16);
      te[3][i] = (w >> 24) | (w << 8);

      std::uint8_t d = inv_sbox[i];
      std::uint32_t v = (static_cast<std::uint32_t>(gmul(d, 14)) << 24) |
                        (static_cast<std::uint32_t>(gmul(d, 9)) << 16) |
                        (static_cast<std::uint32_t>(gmul(d, 13)) << 8) |
                        static_cast<std::uint32_t>(gmul(d, 11));
      td[0][i] = v;
      td[1][i] = (v >> 8) | (v << 24);
      td[2][i] = (v >> 16) | (v << 16);
      td[3][i] = (v >> 24) | (v << 8);
    }

    rcon[0] = 0;  // unused
    std::uint8_t r = 1;
    for (int i = 1; i <= 10; ++i) {
      rcon[i] = r;
      r = xtime(r);
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

std::uint32_t sub_word(std::uint32_t w) {
  const Tables& t = tables();
  return (static_cast<std::uint32_t>(t.sbox[(w >> 24) & 0xff]) << 24) |
         (static_cast<std::uint32_t>(t.sbox[(w >> 16) & 0xff]) << 16) |
         (static_cast<std::uint32_t>(t.sbox[(w >> 8) & 0xff]) << 8) |
         static_cast<std::uint32_t>(t.sbox[w & 0xff]);
}

std::uint32_t rot_word(std::uint32_t w) { return (w << 8) | (w >> 24); }

// InvMixColumns applied to one round-key word (for the equivalent inverse
// cipher key schedule).
std::uint32_t inv_mix_word(std::uint32_t w) {
  std::uint8_t b0 = static_cast<std::uint8_t>(w >> 24);
  std::uint8_t b1 = static_cast<std::uint8_t>(w >> 16);
  std::uint8_t b2 = static_cast<std::uint8_t>(w >> 8);
  std::uint8_t b3 = static_cast<std::uint8_t>(w);
  auto mix = [](std::uint8_t a, std::uint8_t b, std::uint8_t c,
                std::uint8_t d) {
    return static_cast<std::uint32_t>(gmul(a, 14) ^ gmul(b, 11) ^
                                      gmul(c, 13) ^ gmul(d, 9));
  };
  return (mix(b0, b1, b2, b3) << 24) | (mix(b1, b2, b3, b0) << 16) |
         (mix(b2, b3, b0, b1) << 8) | mix(b3, b0, b1, b2);
}

}  // namespace

Aes::Aes(ByteView key) : Aes(key, accel::cpu_supported()) {}

Aes Aes::portable(ByteView key) { return Aes(key, false); }

Aes::Aes(ByteView key, bool accel) : has_accel_(accel) {
  if (key.size() != 16 && key.size() != 24 && key.size() != 32) {
    throw Error(ErrorKind::kCrypto, "AES key must be 16/24/32 bytes");
  }
  const std::size_t nk = key.size() / 4;
  rounds_ = static_cast<int>(nk + 6);
  auto* enc = reinterpret_cast<std::uint8_t*>(ek_.data());
  auto* dec = reinterpret_cast<std::uint8_t*>(dk_.data());
  if (has_accel_ && nk == 4) {
    accel::expand_key_128(key.data(), enc, dec);
    return;
  }

  const Tables& t = tables();
  const std::size_t nw = 4 * (static_cast<std::size_t>(rounds_) + 1);
  for (std::size_t i = 0; i < nk; ++i) {
    ek_[i] = load_be32(key.data() + 4 * i);
  }
  for (std::size_t i = nk; i < nw; ++i) {
    std::uint32_t temp = ek_[i - 1];
    if (i % nk == 0) {
      temp = sub_word(rot_word(temp)) ^
             (static_cast<std::uint32_t>(t.rcon[i / nk]) << 24);
    } else if (nk > 6 && i % nk == 4) {
      temp = sub_word(temp);
    }
    ek_[i] = ek_[i - nk] ^ temp;
  }

  if (has_accel_) {
    // AES-192/256 on AES-NI: the standard byte-order round keys are the
    // big-endian stores of the schedule words; AESIMC derives the
    // inverse-cipher keys.
    for (std::size_t i = 0; i < nw; ++i) store_be32(ek_[i], enc + 4 * i);
    accel::build_decrypt_schedule(enc, rounds_, dec);
    return;
  }

  // Equivalent-inverse-cipher decryption keys: reversed round order, with
  // InvMixColumns applied to all but the first and last round keys.
  const std::size_t nr = static_cast<std::size_t>(rounds_);
  for (std::size_t c = 0; c < 4; ++c) {
    dk_[c] = ek_[4 * nr + c];
    dk_[4 * nr + c] = ek_[c];
  }
  for (std::size_t r = 1; r < nr; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      dk_[4 * r + c] = inv_mix_word(ek_[4 * (nr - r) + c]);
    }
  }
}

void Aes::encrypt_block(const std::uint8_t in[kBlockSize],
                        std::uint8_t out[kBlockSize]) const {
  if (has_accel_) {
    accel::encrypt_block(accel_enc_keys(), rounds_, in, out);
    return;
  }
  const Tables& t = tables();
  std::uint32_t s0 = load_be32(in) ^ ek_[0];
  std::uint32_t s1 = load_be32(in + 4) ^ ek_[1];
  std::uint32_t s2 = load_be32(in + 8) ^ ek_[2];
  std::uint32_t s3 = load_be32(in + 12) ^ ek_[3];

  const std::size_t nr = static_cast<std::size_t>(rounds_);
  for (std::size_t r = 1; r < nr; ++r) {
    std::uint32_t t0 = t.te[0][s0 >> 24] ^ t.te[1][(s1 >> 16) & 0xff] ^
                       t.te[2][(s2 >> 8) & 0xff] ^ t.te[3][s3 & 0xff] ^
                       ek_[4 * r];
    std::uint32_t t1 = t.te[0][s1 >> 24] ^ t.te[1][(s2 >> 16) & 0xff] ^
                       t.te[2][(s3 >> 8) & 0xff] ^ t.te[3][s0 & 0xff] ^
                       ek_[4 * r + 1];
    std::uint32_t t2 = t.te[0][s2 >> 24] ^ t.te[1][(s3 >> 16) & 0xff] ^
                       t.te[2][(s0 >> 8) & 0xff] ^ t.te[3][s1 & 0xff] ^
                       ek_[4 * r + 2];
    std::uint32_t t3 = t.te[0][s3 >> 24] ^ t.te[1][(s0 >> 16) & 0xff] ^
                       t.te[2][(s1 >> 8) & 0xff] ^ t.te[3][s2 & 0xff] ^
                       ek_[4 * r + 3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }

  auto final_word = [&](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                        std::uint32_t d, std::uint32_t rk) {
    return (static_cast<std::uint32_t>(t.sbox[a >> 24]) << 24 |
            static_cast<std::uint32_t>(t.sbox[(b >> 16) & 0xff]) << 16 |
            static_cast<std::uint32_t>(t.sbox[(c >> 8) & 0xff]) << 8 |
            static_cast<std::uint32_t>(t.sbox[d & 0xff])) ^
           rk;
  };
  store_be32(final_word(s0, s1, s2, s3, ek_[4 * nr]), out);
  store_be32(final_word(s1, s2, s3, s0, ek_[4 * nr + 1]), out + 4);
  store_be32(final_word(s2, s3, s0, s1, ek_[4 * nr + 2]), out + 8);
  store_be32(final_word(s3, s0, s1, s2, ek_[4 * nr + 3]), out + 12);
}

void Aes::decrypt_block(const std::uint8_t in[kBlockSize],
                        std::uint8_t out[kBlockSize]) const {
  if (has_accel_) {
    accel::decrypt_block(accel_dec_keys(), rounds_, in, out);
    return;
  }
  const Tables& t = tables();
  std::uint32_t s0 = load_be32(in) ^ dk_[0];
  std::uint32_t s1 = load_be32(in + 4) ^ dk_[1];
  std::uint32_t s2 = load_be32(in + 8) ^ dk_[2];
  std::uint32_t s3 = load_be32(in + 12) ^ dk_[3];

  const std::size_t nr = static_cast<std::size_t>(rounds_);
  for (std::size_t r = 1; r < nr; ++r) {
    std::uint32_t t0 = t.td[0][s0 >> 24] ^ t.td[1][(s3 >> 16) & 0xff] ^
                       t.td[2][(s2 >> 8) & 0xff] ^ t.td[3][s1 & 0xff] ^
                       dk_[4 * r];
    std::uint32_t t1 = t.td[0][s1 >> 24] ^ t.td[1][(s0 >> 16) & 0xff] ^
                       t.td[2][(s3 >> 8) & 0xff] ^ t.td[3][s2 & 0xff] ^
                       dk_[4 * r + 1];
    std::uint32_t t2 = t.td[0][s2 >> 24] ^ t.td[1][(s1 >> 16) & 0xff] ^
                       t.td[2][(s0 >> 8) & 0xff] ^ t.td[3][s3 & 0xff] ^
                       dk_[4 * r + 2];
    std::uint32_t t3 = t.td[0][s3 >> 24] ^ t.td[1][(s2 >> 16) & 0xff] ^
                       t.td[2][(s1 >> 8) & 0xff] ^ t.td[3][s0 & 0xff] ^
                       dk_[4 * r + 3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }

  auto final_word = [&](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                        std::uint32_t d, std::uint32_t rk) {
    return (static_cast<std::uint32_t>(t.inv_sbox[a >> 24]) << 24 |
            static_cast<std::uint32_t>(t.inv_sbox[(b >> 16) & 0xff]) << 16 |
            static_cast<std::uint32_t>(t.inv_sbox[(c >> 8) & 0xff]) << 8 |
            static_cast<std::uint32_t>(t.inv_sbox[d & 0xff])) ^
           rk;
  };
  store_be32(final_word(s0, s3, s2, s1, dk_[4 * nr]), out);
  store_be32(final_word(s1, s0, s3, s2, dk_[4 * nr + 1]), out + 4);
  store_be32(final_word(s2, s1, s0, s3, dk_[4 * nr + 2]), out + 8);
  store_be32(final_word(s3, s2, s1, s0, dk_[4 * nr + 3]), out + 12);
}

}  // namespace omadrm::crypto
