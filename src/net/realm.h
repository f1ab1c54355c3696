// Deterministic PKI realm shared across process boundaries.
//
// The in-process benches build one Session object holding the CA, the
// intermediate, the RI, and the devices — everything trusts everything
// because it all came out of one DeterministicRng. A *networked* bench
// can't share that object: the server is another process. What it can
// share is the seed. Realm replays the exact construction sequence
// (rng -> root CA -> intermediate -> RI) on both sides, so the server's
// regenerated root is bit-identical to the client's; device certificates
// the client mints with its copy of the root key validate against the
// server's trust anchor, and the RI chain arriving in the registration
// response validates against the client's. Draws made *after* that
// shared prefix (per-device keys, nonces) are free to diverge — trust
// only needs the prefix.
//
// The realm's protocol clock (kRealmNow) is virtual time, matching the
// rest of the repo's tests; the network layer's timeouts run on the
// monotonic clock independently.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "agent/drm_agent.h"
#include "common/random.h"
#include "pki/authority.h"
#include "provider/provider.h"
#include "ri/rights_issuer.h"

namespace omadrm::net {

inline constexpr std::uint64_t kRealmNow = 1100000000;
inline constexpr std::size_t kRealmRsaBits = 1024;
inline constexpr std::uint64_t kDefaultRealmSeed = 0xD12A1;

/// IDs every realm member agrees on.
inline constexpr const char* kRealmRiId = "ri:net";
inline constexpr const char* kRealmRoId = "ro:net";
inline constexpr const char* kRealmContentId = "cid:net@content";

class Realm {
 public:
  explicit Realm(std::uint64_t seed = kDefaultRealmSeed);

  /// The server-side RI, with the realm's default license offer loaded.
  ri::RightsIssuer& issuer() { return ri_; }
  pki::CertificationAuthority& ca() { return ca_; }
  provider::PlainCryptoProvider& provider() { return provider_; }
  DeterministicRng& rng() { return rng_; }
  const pki::Validity& validity() const { return validity_; }

  /// A provisioned device agent (certificate issued by the realm root).
  /// Each agent gets its OWN realm-owned rng (seeded from the realm seed
  /// + a counter, never the shared stream): agents run on client worker
  /// threads while the server-side RI draws from the realm rng through
  /// its LockedRng, which serializes only the RI's own draws, so sharing
  /// one generator would be a data race. Call make_agent itself from one
  /// thread only (it appends to the realm's rng list); the returned agent
  /// is then thread-confined to whichever thread drives it.
  std::unique_ptr<agent::DrmAgent> make_agent(const std::string& device_id);

 private:
  DeterministicRng rng_;
  std::uint64_t seed_;
  std::deque<DeterministicRng> agent_rngs_;  // stable addresses, realm-owned
  pki::Validity validity_;
  pki::CertificationAuthority ca_;
  pki::SubordinateAuthority ica_;
  provider::PlainCryptoProvider provider_;
  ri::RightsIssuer ri_;
};

}  // namespace omadrm::net
