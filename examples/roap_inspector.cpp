// ROAP inspector — the 4-pass registration and 2-pass acquisition spelled
// out message by message, at the wire level.
//
// The paper notes that building their Java model "resulted in information
// about eg the ROAP message file sizes" — the inputs to the hash costs in
// the cycle model. This tool regenerates that information from our stack:
// it drives the protocol by hand (constructing and signing each message
// explicitly rather than through DrmAgent), pushes each one through the
// Rights Issuer's uniform envelope dispatch, and prints every document
// with its serialized size, so the analytic model's nominal sizes (see
// model/analytic.h) can be checked against reality.
//
// Usage: ./build/examples/roap_inspector [--dump]
//   --dump prints each document's exact compact wire bytes.
// Exits 1 if any exchange is refused or any document fails to decode.
#include <cstdio>
#include <cstring>
#include <exception>

#include "ci/content_issuer.h"
#include "common/random.h"
#include "pki/authority.h"
#include "provider/provider.h"
#include "ri/rights_issuer.h"
#include "roap/envelope.h"
#include "roap/messages.h"
#include "rsa/pss.h"
#include "xml/writer.h"

using namespace omadrm;  // NOLINT

namespace {

bool g_dump = false;

void show(const char* direction, const char* name, const std::string& wire) {
  std::printf("%-4s %-28s %6zu bytes\n", direction, name, wire.size());
  if (g_dump) {
    std::printf("%s\n", wire.c_str());
  }
}

void show(const char* direction, const roap::Envelope& env) {
  show(direction, roap::to_string(env.type()), env.wire());
}

bool succeeded(const char* message, roap::Status status) {
  if (status == roap::Status::kSuccess) return true;
  std::fprintf(stderr, "roap_inspector: %s refused: %s\n", message,
               roap::to_string(status));
  return false;
}

int inspect() {
  DeterministicRng rng(1);
  provider::CryptoProvider& crypto = provider::plain_provider();
  const std::uint64_t now = 1100000000;
  const pki::Validity validity{now - 86400, now + 365 * 86400};

  pki::CertificationAuthority ca("CMLA Root CA", 1024, validity, rng);
  ci::ContentIssuer content_issuer("content.example", crypto, rng);
  ri::RightsIssuer ri("ri.example", "http://ri.example/roap", ca, validity,
                      crypto, rng);

  // Device identity, built by hand so every signing step is visible.
  rsa::PrivateKey device_key = rsa::generate_key(1024, rng);
  pki::Certificate device_cert =
      ca.issue("device-01", device_key.public_key(), validity, rng);

  // Content + license on offer.
  Bytes track = rng.bytes(30 * 1024);
  dcf::Headers headers;
  headers.content_type = "audio/mpeg";
  headers.content_id = "cid:inspect@content.example";
  headers.rights_issuer_url = ri.url();
  dcf::Dcf dcf = content_issuer.package(headers, track);
  ri::LicenseOffer offer;
  offer.ro_id = "ro:inspect";
  offer.content_id = headers.content_id;
  offer.dcf_hash = dcf.hash();
  rel::Permission play;
  play.type = rel::PermissionType::kPlay;
  play.constraint.count = 25;
  offer.permissions = {play};
  offer.kcek = *content_issuer.kcek_for(headers.content_id);
  ri.add_offer(offer);

  std::printf("ROAP wire trace (dir: -> device to RI, <- RI to device)\n\n");
  std::printf("== Registration (4-pass) ==\n");

  roap::DeviceHello hello;
  hello.device_id = "device-01";
  hello.algorithms = {"SHA-1", "HMAC-SHA1", "AES-128-CBC", "AES-WRAP",
                      "RSA-1024", "RSA-PSS", "KDF2"};
  hello.device_nonce = rng.bytes(roap::kNonceLen);
  roap::Envelope hello_env = roap::Envelope::wrap(hello);
  show("->", hello_env);

  roap::Envelope ri_hello_env = ri.handle(hello_env, now);
  show("<-", ri_hello_env);
  roap::RiHello ri_hello = ri_hello_env.open<roap::RiHello>();
  if (!succeeded("RIHello", ri_hello.status)) return 1;

  roap::RegistrationRequest reg_req;
  reg_req.session_id = ri_hello.session_id;
  reg_req.device_id = hello.device_id;
  reg_req.device_nonce = hello.device_nonce;
  reg_req.ri_nonce = ri_hello.ri_nonce;
  reg_req.certificate_der = device_cert.to_der();
  reg_req.ocsp_nonce = rng.bytes(roap::kNonceLen);
  reg_req.signature = rsa::pss_sign(device_key, reg_req.payload(), rng);
  roap::Envelope reg_req_env = roap::Envelope::wrap(reg_req);
  show("->", reg_req_env);
  std::printf("     (device certificate DER: %zu bytes, signature: %zu bytes)\n",
              reg_req.certificate_der.size(), reg_req.signature.size());

  roap::Envelope reg_resp_env = ri.handle(reg_req_env, now);
  show("<-", reg_resp_env);
  roap::RegistrationResponse reg_resp =
      reg_resp_env.open<roap::RegistrationResponse>();
  if (!succeeded("RegistrationResponse", reg_resp.status)) return 1;
  std::printf("     (RI certificate: %zu bytes, OCSP response: %zu bytes)\n",
              reg_resp.ri_certificate_der.size(),
              reg_resp.ocsp_response_der.size());

  std::printf("\n== RO Acquisition (2-pass) ==\n");
  roap::RoRequest ro_req;
  ro_req.device_id = hello.device_id;
  ro_req.ri_id = ri.ri_id();
  ro_req.ro_id = offer.ro_id;
  ro_req.device_nonce = rng.bytes(roap::kNonceLen);
  ro_req.signature = rsa::pss_sign(device_key, ro_req.payload(), rng);
  roap::Envelope ro_req_env = roap::Envelope::wrap(ro_req);
  show("->", ro_req_env);

  roap::Envelope ro_resp_env = ri.handle(ro_req_env, now);
  show("<-", ro_resp_env);
  roap::RoResponse ro_resp = ro_resp_env.open<roap::RoResponse>();
  if (!succeeded("ROResponse", ro_resp.status)) return 1;
  if (ro_resp.ros.empty()) {
    std::fprintf(stderr, "roap_inspector: ROResponse carries no RO\n");
    return 1;
  }
  const roap::ProtectedRo& ro = ro_resp.ros.front();
  std::string ro_wire;
  xml::Writer w(ro_wire);
  ro.write(w);
  show("  ", "  protectedRO (within)", ro_wire);
  std::printf(
      "     C = C1||C2: %zu bytes (C1 %d + C2 %zu), E_KREK(KCEK): %zu, "
      "MAC: %zu\n",
      ro.wrapped_keys.size(), 128, ro.wrapped_keys.size() - 128,
      ro.enc_kcek.size(), ro.mac.size());
  std::printf("     MAC-protected payload: %zu bytes\n",
              ro.mac_payload().size());

  std::printf(
      "\nThese sizes feed the SHA-1 terms of the cost model; compare with\n"
      "the nominal values in model/analytic.h (AnalyticParams). RSA costs\n"
      "dominate the one-time phases regardless (Figure 7), so modest size\n"
      "differences do not move the totals.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  g_dump = argc > 1 && std::strcmp(argv[1], "--dump") == 0;
  try {
    return inspect();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "roap_inspector: %s\n", e.what());
    return 1;
  }
}
