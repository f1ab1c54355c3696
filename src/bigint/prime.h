// Probabilistic primality testing and prime generation for RSA key
// generation (FIPS-186 style: trial division by small primes, then
// Miller–Rabin witnesses).
#pragma once

#include <cstddef>

#include "bigint/bigint.h"
#include "common/random.h"

namespace omadrm::bigint {

/// Miller–Rabin with `rounds` random witnesses (plus base-2 always).
/// Error probability <= 4^-rounds for composite n. The witnesses run on
/// the fixed-width Montgomery path, so n may have at most kMaxWords words
/// (bigint/limbs.h); a wider odd n throws kCrypto.
bool is_probable_prime(const BigInt& n, Rng& rng, std::size_t rounds = 20);

/// Generates a random prime with exactly `bits` bits (top two bits set so
/// that products of two such primes have exactly 2*bits bits, as RSA-1024
/// key generation requires).
BigInt generate_prime(std::size_t bits, Rng& rng);

}  // namespace omadrm::bigint
