// Probabilistic primality testing, prime generation and the small-
// exponent inverse for RSA key generation (FIPS-186 style: trial
// division by small primes, then Miller–Rabin witnesses), all on the
// fixed-width limbs of limbs.h.
//
// None of this is constant time. Trial division and the witness loop
// stop at the first proof of compositeness, and prime generation redraws
// until a candidate passes (up to a bound), so the running time tracks the candidates
// tried. Only the exponentiations inside a witness round are the
// Montgomery path's fixed sequences.
#pragma once

#include <cstddef>
#include <span>

#include "bigint/limbs.h"
#include "common/random.h"

namespace omadrm::bigint {

/// Miller–Rabin with `rounds` random witnesses (plus base-2 always), for
/// n given as words least significant first. Error probability
/// <= 4^-rounds for composite n. Each witness a is drawn as
/// random_below(n - 3) + 2. The witnesses run on the fixed-width
/// Montgomery path, so a wider than kMaxWords odd n throws kCrypto.
bool is_probable_prime(std::span<const Word> n, Rng& rng,
                       std::size_t rounds = 20);

/// Generates a random prime with exactly `bits` bits, 8 <= bits <= 4096
/// (kRange otherwise). Each candidate is `bits` random bits with the top
/// one set, plus 2^(bits-2) (redrawn when that carries past the width,
/// so products of two such primes have exactly 2*bits bits, as RSA key
/// generation requires), made odd. Throws kCrypto after 64 * bits
/// candidates without a prime, which an honest search reaches with
/// probability about e^-185: a broken Rng or Miller–Rabin fails there
/// instead of searching forever.
Limbs generate_prime(std::size_t bits, Rng& rng);

/// out = e^-1 mod m, for the n-word modulus m > 1 and a word 1 < e < 2^32:
/// (1 + k m) / e with k = -m^-1 mod e, one product by a word and one
/// exact division by it. Returns false, leaving out untouched, when e
/// has no inverse (gcd(m, e) != 1).
bool inverse_of_small(Word* out, const Word* m, std::size_t n, Word e);

}  // namespace omadrm::bigint
