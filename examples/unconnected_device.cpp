// Unconnected Devices (paper §2.3): "devices that cannot directly connect
// to the RI (the so-called 'Unconnected Devices' like mobile mp3 players)".
//
// A portable player with no network runs the complete ROAP — registration,
// domain join, RO acquisition — with every message relayed as an opaque
// serialized envelope through a phone. The phone hands the bytes to the
// Rights Issuer unexamined (the RI side parses them with
// `Envelope::from_wire` before `handle`), so it never interprets the
// relayed traffic; all trust decisions happen on the player via the
// per-pass halves of the agent's session state machines.
//
// Build & run:  ./build/examples/unconnected_device
#include <cstdio>

#include "agent/drm_agent.h"
#include "agent/sessions.h"
#include "ci/content_issuer.h"
#include "pki/authority.h"
#include "provider/provider.h"
#include "ri/rights_issuer.h"
#include "roap/envelope.h"

using namespace omadrm;  // NOLINT

namespace {

/// The phone's role: carry bytes to the RI and back. In a real deployment
/// this is Bluetooth/USB on one side and HTTP on the other.
roap::Envelope relay_via_phone(ri::RightsIssuer& ri,
                               const roap::Envelope& request,
                               std::uint64_t now) {
  std::printf("  [phone] relaying %4zu bytes to RI, ", request.size());
  roap::Envelope response =
      ri.handle(roap::Envelope::from_wire(request.wire()), now);
  std::printf("returning %4zu bytes\n", response.size());
  return response;
}

}  // namespace

int main() {
  DeterministicRng rng(404);
  provider::CryptoProvider& crypto = provider::plain_provider();
  const std::uint64_t now = 1100000000;
  const pki::Validity validity{now - 86400, now + 365 * 86400};

  pki::CertificationAuthority ca("CMLA Root CA", 1024, validity, rng);
  ci::ContentIssuer content_issuer("content.example", crypto, rng);
  ri::RightsIssuer ri("ri.example", "http://ri.example/roap", ca, validity,
                      crypto, rng);
  ri.create_domain("domain:pocket");

  Bytes album = rng.bytes(64 * 1024);
  dcf::Headers headers;
  headers.content_type = "audio/mpeg";
  headers.content_id = "cid:album@content.example";
  headers.rights_issuer_url = ri.url();
  dcf::Dcf dcf = content_issuer.package(headers, album);

  ri::LicenseOffer offer;
  offer.ro_id = "ro:album-pocket";
  offer.content_id = headers.content_id;
  offer.dcf_hash = dcf.hash();
  rel::Permission play;
  play.type = rel::PermissionType::kPlay;
  offer.permissions = {play};
  offer.kcek = *content_issuer.kcek_for(headers.content_id);
  offer.domain_ro = true;
  offer.domain_id = "domain:pocket";
  ri.add_offer(offer);

  // The unconnected player. It owns a CMLA certificate like any device —
  // certification does not require connectivity.
  agent::DrmAgent player("mp3-player-01", ca.root_certificate(), crypto, rng);
  player.provision(
      ca.issue("mp3-player-01", player.public_key(), validity, rng));

  std::printf("== relayed registration (4-pass) ==\n");
  agent::RegistrationSession reg(player, now);
  auto hello = reg.hello();
  if (!hello.ok()) return 1;
  auto reg_req = reg.request(relay_via_phone(ri, *hello, now));
  if (!reg_req.ok()) return 1;
  Result<> status = reg.conclude(relay_via_phone(ri, *reg_req, now));
  std::printf("  player: registration %s\n\n", status.describe().c_str());
  if (!status.ok()) return 1;

  std::printf("== relayed domain join ==\n");
  agent::DomainSession join(player, agent::DomainSession::Kind::kJoin,
                            ri.ri_id(), "domain:pocket", now);
  auto join_req = join.request();
  if (!join_req.ok()) return 1;
  status = join.conclude(relay_via_phone(ri, *join_req, now));
  std::printf("  player: join %s\n", status.describe().c_str());
  if (!status.ok()) return 1;
  std::printf("  player: holds K_D generation %u\n\n",
              *player.domain_generation("domain:pocket"));

  std::printf("== relayed RO acquisition (2-pass) ==\n");
  agent::AcquisitionSession acquire(player, ri.ri_id(), "ro:album-pocket",
                                    now);
  auto ro_req = acquire.request();
  if (!ro_req.ok()) return 1;
  auto acq = acquire.conclude(relay_via_phone(ri, *ro_req, now));
  std::printf("  player: acquisition %s\n\n", acq.describe().c_str());
  if (!acq.ok()) return 1;

  if (player.install_ro(*acq, now) != agent::AgentStatus::kOk) return 1;
  agent::ConsumeResult play_result =
      player.consume(dcf, rel::PermissionType::kPlay, now);
  std::printf("player installs and plays: %s (%zu bytes decrypted)\n",
              agent::to_string(play_result.status),
              play_result.content.size());
  return play_result.status == agent::AgentStatus::kOk ? 0 : 1;
}
