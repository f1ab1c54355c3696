// Domain sharing (paper §2.3): one license, several devices.
//
// A phone and an "unconnected" mp3 player join the same domain; a Domain
// Rights Object acquired by the phone plays on both, and the mp3 player
// never talks to the Rights Issuer about this particular license — it only
// needed the one-time JoinDomain to receive the domain key K_D.
//
// Build & run:  ./build/examples/domain_sharing
#include <cstdio>

#include "agent/drm_agent.h"
#include "ci/content_issuer.h"
#include "pki/authority.h"
#include "provider/provider.h"
#include "ri/rights_issuer.h"
#include "roap/transport.h"
#include "xml/node.h"
#include "xml/writer.h"

using namespace omadrm;  // NOLINT

namespace {

agent::DrmAgent make_device(const char* id, pki::CertificationAuthority& ca,
                            const pki::Validity& validity, Rng& rng) {
  agent::DrmAgent d(id, ca.root_certificate(), provider::plain_provider(),
                    rng);
  d.provision(ca.issue(id, d.public_key(), validity, rng));
  return d;
}

}  // namespace

int main() {
  DeterministicRng rng(77);
  provider::CryptoProvider& crypto = provider::plain_provider();
  const std::uint64_t now = 1100000000;
  const pki::Validity validity{now - 86400, now + 365 * 86400};

  pki::CertificationAuthority ca("CMLA Root CA", 1024, validity, rng);
  ci::ContentIssuer content_issuer("content.example", crypto, rng);
  ri::RightsIssuer ri("ri.example", "http://ri.example/roap", ca, validity,
                      crypto, rng);
  ri.create_domain("domain:family", /*max_members=*/4);

  // An album packaged once.
  Bytes album = rng.bytes(200 * 1024);
  dcf::Headers headers;
  headers.content_type = "audio/mpeg";
  headers.content_id = "cid:album@content.example";
  headers.rights_issuer_url = ri.url();
  dcf::Dcf dcf = content_issuer.package(headers, album);

  ri::LicenseOffer offer;
  offer.ro_id = "ro:album-family";
  offer.content_id = headers.content_id;
  offer.dcf_hash = dcf.hash();
  rel::Permission play;
  play.type = rel::PermissionType::kPlay;
  offer.permissions = {play};
  offer.kcek = *content_issuer.kcek_for(headers.content_id);
  offer.domain_ro = true;
  offer.domain_id = "domain:family";
  ri.add_offer(offer);

  // Two devices: a phone and an unconnected mp3 player (the player still
  // registers once — via the phone acting as proxy in the real world).
  agent::DrmAgent phone = make_device("phone-01", ca, validity, rng);
  agent::DrmAgent player = make_device("mp3-player-01", ca, validity, rng);

  roap::InProcessTransport transport(ri, now);
  for (agent::DrmAgent* d : {&phone, &player}) {
    if (!d->register_with(transport, now).ok()) return 1;
    if (!d->join_domain(transport, ri.ri_id(), "domain:family", now).ok()) {
      return 1;
    }
    std::printf("%s joined domain:family (has K_D: %s)\n",
                d->device_id().c_str(),
                d->has_domain_key("domain:family") ? "yes" : "no");
  }

  // Only the phone acquires the Domain RO from the RI...
  auto acq = phone.acquire_ro(transport, ri.ri_id(), offer.ro_id, now);
  if (!acq.ok()) return 1;
  std::printf("\nphone acquired %s (domain RO, RI-signed: %s)\n",
              acq->rights.ro_id.c_str(),
              acq->signature.empty() ? "no" : "yes");

  // ...and hands the RO file to the player out-of-band (e.g. USB). Both
  // install and play it with their copy of K_D.
  std::string ro_file;
  xml::Writer writer(ro_file);
  acq->write(writer);
  // Each recipient decodes its own copy of the file.
  auto read_ro_file = [&ro_file] {
    xml::Arena arena;
    return roap::ProtectedRo::from_node(xml::parse_in(arena, ro_file));
  };
  std::printf("RO transferred out-of-band as a %zu-byte XML file\n\n",
              ro_file.size());

  for (agent::DrmAgent* d : {&phone, &player}) {
    if (d->install_ro(read_ro_file(), now) != agent::AgentStatus::kOk) {
      return 1;
    }
    agent::ConsumeResult r = d->consume(dcf, rel::PermissionType::kPlay, now);
    std::printf("%s: install ok, playback %s (%zu bytes)\n",
                d->device_id().c_str(),
                r.status == agent::AgentStatus::kOk ? "ok" : "FAILED",
                r.content.size());
    if (r.status != agent::AgentStatus::kOk) return 1;
  }

  // A stranger's device (registered, but not a domain member) cannot.
  agent::DrmAgent stranger = make_device("stranger-01", ca, validity, rng);
  if (!stranger.register_with(transport, now).ok()) return 1;
  agent::AgentStatus status = stranger.install_ro(read_ro_file(), now);
  std::printf("\nstranger-01 (not in the domain): install -> %s\n",
              agent::to_string(status));
  return status == agent::AgentStatus::kOk ? 1 : 0;
}
