// RSASSA-PSS (PKCS#1 v2.1 §8.1) with SHA-1 and MGF1-SHA1 — the signature
// scheme OMA DRM 2 mandates for ROAP messages and Rights Object signatures
// ("RSA-PSSA" in the paper's algorithm list, using RSASP1/RSAVP1).
//
// The paper approximates EMSA-PSS as "just one hash function over the
// message code"; we implement the real encoding (hash, salt, MGF1 mask,
// 0xbc trailer) — the cost model still charges it as hash + RSA primitive,
// matching the paper's accounting.
//
// The encoding works in caller-owned buffers and the RSA primitive on
// fixed-width limbs, so pss_sign allocates only the signature it returns
// and pss_verify nothing.
#pragma once

#include <span>

#include "common/bytes.h"
#include "common/random.h"
#include "rsa/rsa.h"

namespace omadrm::rsa {

inline constexpr std::size_t kPssSaltLen = 20;  // == SHA-1 digest size

/// MGF1 over SHA-1 (PKCS#1 v2.1 §B.2.1): XORs the data.size()-byte mask
/// of `seed` into `data`.
void mgf1_sha1_xor(ByteView seed, std::span<std::uint8_t> data);

/// EMSA-PSS-ENCODE of `message` for a key of `em_bits` (= modBits - 1)
/// into `em`, which must be ceil(em_bits / 8) bytes.
void emsa_pss_encode(ByteView message, std::size_t em_bits, Rng& rng,
                     std::span<std::uint8_t> em);

/// EMSA-PSS-VERIFY; true iff `em` is a consistent encoding of `message`.
bool emsa_pss_verify(ByteView message, ByteView em, std::size_t em_bits);

/// RSASSA-PSS-SIGN: returns a signature of exactly key-length bytes.
Bytes pss_sign(const PrivateKey& key, ByteView message, Rng& rng);

/// RSASSA-PSS-VERIFY: true iff `signature` is valid for `message`. A key
/// the RSA path cannot use (an even or too wide modulus) verifies
/// nothing.
bool pss_verify(const PublicKey& key, ByteView message, ByteView signature);

}  // namespace omadrm::rsa
