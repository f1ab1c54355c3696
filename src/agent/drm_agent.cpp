#include "agent/drm_agent.h"

#include <algorithm>
#include <utility>

#include "agent/sessions.h"
#include "common/base64.h"
#include "common/error.h"
#include "common/hex.h"
#include "xml/node.h"
#include "xml/writer.h"

namespace omadrm::agent {

using omadrm::Error;
using omadrm::ErrorKind;
using roap::Status;

namespace {

// Store record keys. "id" carries the identity; the prefixed families
// carry one record per RI context / domain key / installed RO / per-RO
// constraint state. The constraint state is its own (small, binary)
// record so a burn commit rewrites ~100 bytes, not the whole RO.
constexpr const char* kIdentityKey = "id";

std::string ri_record_key(const std::string& ri_id) { return "ri/" + ri_id; }
std::string domain_record_key(const std::string& id) { return "dom/" + id; }
std::string ro_record_key(const std::string& ro_id) { return "ro/" + ro_id; }
std::string state_record_key(const std::string& ro_id) {
  return "st/" + ro_id;
}

constexpr rel::PermissionType kAllPermissions[] = {
    rel::PermissionType::kPlay, rel::PermissionType::kDisplay,
    rel::PermissionType::kExecute, rel::PermissionType::kPrint,
    rel::PermissionType::kExport};

/// Bytes per permission in the binary "st/" record: be32 used, u8
/// first-use flag, be64 first_use, be64 accumulated.
constexpr std::size_t kStateSlot = 4 + 1 + 8 + 8;

/// The "st/" record of a freshly installed RO: a default State encodes
/// as all zeros for every permission.
Bytes zero_enforcer_state() {
  return Bytes(std::size(kAllPermissions) * kStateSlot, 0);
}

/// True when `chain` holds, byte for byte, the certificates `response`
/// carries: the leaf, then the intermediates in order.
bool same_chain(const std::vector<pki::Certificate>& chain,
                const roap::RegistrationResponse& response) {
  const std::vector<Bytes>& intermediates = response.ri_certificate_chain_der;
  if (chain.size() != 1 + intermediates.size() ||
      chain.front().to_der() != response.ri_certificate_der) {
    return false;
  }
  for (std::size_t i = 0; i < intermediates.size(); ++i) {
    if (chain[i + 1].to_der() != intermediates[i]) return false;
  }
  return true;
}

}  // namespace

DrmAgent::DrmAgent(std::string device_id, pki::Certificate trust_root,
                   provider::CryptoProvider& crypto, Rng& rng,
                   std::size_t key_bits)
    : device_id_(std::move(device_id)),
      trust_root_(std::move(trust_root)),
      crypto_(crypto),
      rng_(rng),
      key_(rsa::generate_key(key_bits, rng)),
      kdev_(rng.bytes(16)),
      chain_verifier_(trust_root_, crypto) {}

DrmAgent::DrmAgent(FromStoreTag, pki::Certificate trust_root,
                   provider::CryptoProvider& crypto, Rng& rng, Bytes kdev)
    : trust_root_(std::move(trust_root)),
      crypto_(crypto),
      rng_(rng),
      kdev_(std::move(kdev)),
      chain_verifier_(trust_root_, crypto) {}

void DrmAgent::provision(pki::Certificate device_certificate) {
  const rsa::PublicKey& certified = device_certificate.subject_key();
  const rsa::PublicKey own = key_.public_key();
  if (!std::ranges::equal(certified.n(), own.n()) ||
      !std::ranges::equal(certified.e(), own.e())) {
    throw Error(ErrorKind::kProtocol,
                "agent: certificate does not match device key");
  }
  device_certificate.to_der();  // throws Error(kState) while unsigned
  pki::Certificate previous_cert =
      std::exchange(certificate_, std::move(device_certificate));
  if (store_ != nullptr) {
    store::Transaction tx;
    tx.put(kIdentityKey, encode_identity());
    Result<> committed = store_->commit(tx);
    if (!committed.ok()) {
      // Same barrier as every other mutation: a provisioning the store
      // refused must not be acknowledged in RAM either.
      certificate_ = std::move(previous_cert);
      throw Error(ErrorKind::kState,
                  "agent: store refused identity commit: " +
                      committed.describe());
    }
  }
}

const pki::Certificate& DrmAgent::certificate() const {
  if (!is_provisioned()) {
    throw Error(ErrorKind::kState, "agent: not provisioned");
  }
  return certificate_;
}

bool DrmAgent::has_ri_context(const std::string& ri_id) const {
  return ri_contexts_.count(ri_id) > 0;
}

const RiContext* DrmAgent::ri_context(const std::string& ri_id) const {
  auto it = ri_contexts_.find(ri_id);
  return it == ri_contexts_.end() ? nullptr : &it->second;
}

Result<> DrmAgent::revalidate_context(RiContext& ctx, std::uint64_t now) {
  const pki::CertStatus status =
      chain_verifier_.revalidate(ctx.verified_chain, ctx.ri_chain, now);
  if (status != pki::CertStatus::kValid) {
    switch (status) {
      case pki::CertStatus::kExpired:
      case pki::CertStatus::kNotYetValid:
        return Result<>(AgentStatus::kRiContextExpired,
                        "RI certificate chain outside validity for " +
                            ctx.ri_id);
      case pki::CertStatus::kRevoked:
        return Result<>(AgentStatus::kCertificateRevoked,
                        "RI certificate revoked for " + ctx.ri_id);
      default:
        return Result<>(AgentStatus::kCertificateInvalid,
                        "RI certificate chain invalid for " + ctx.ri_id);
    }
  }
  return Result<>();
}

// ---------------------------------------------------------------------------
// Phase 1: Registration (4-pass ROAP)
// ---------------------------------------------------------------------------

roap::DeviceHello DrmAgent::make_device_hello(PendingRegistration& pending) {
  if (!is_provisioned()) {
    throw Error(ErrorKind::kState, "agent: not provisioned");
  }
  // Pass 1: capability advertisement (no cryptography, paper §2.4.1).
  roap::DeviceHello hello;
  hello.device_id = device_id_;
  hello.algorithms = {"SHA-1", "HMAC-SHA1", "AES-128-CBC", "AES-WRAP",
                      "RSA-1024", "RSA-PSS", "KDF2"};
  hello.device_nonce = rng_.bytes(roap::kNonceLen);
  pending.device_nonce = hello.device_nonce;
  return hello;
}

roap::RegistrationRequest DrmAgent::make_registration_request(
    const roap::RiHello& ri_hello, PendingRegistration& pending) {
  // Pass 3: signed RegistrationRequest carrying our certificate.
  roap::RegistrationRequest request;
  request.session_id = ri_hello.session_id;
  request.device_id = device_id_;
  request.device_nonce = pending.device_nonce;
  request.ri_nonce = ri_hello.ri_nonce;
  request.certificate_der = certificate_.to_der();
  request.ocsp_nonce = rng_.bytes(roap::kNonceLen);
  request.signature = crypto_.pss_sign(key_, request.payload(), rng_);
  pending.session_id = request.session_id;
  pending.ocsp_nonce = request.ocsp_nonce;
  return request;
}

Result<> DrmAgent::register_with(roap::Transport& transport,
                                 std::uint64_t now,
                                 const roap::RetryPolicy& policy) {
  return RegistrationSession(*this, now).run(transport, policy);
}

Result<> DrmAgent::accept_registration_response(
    const roap::RegistrationResponse& response,
    const PendingRegistration& pending, std::uint64_t now) {
  if (response.status != Status::kSuccess) {
    return Result<>(roap::status_code(response.status),
                    std::string("RI reported ") +
                        roap::to_string(response.status) +
                        " in RegistrationResponse");
  }
  if (response.session_id != pending.session_id) {
    return Result<>(AgentStatus::kNonceMismatch,
                    "RegistrationResponse for session '" +
                        response.session_id + "', ours is '" +
                        pending.session_id + "'");
  }

  // Verify the RI certificate chain (leaf + any intermediates) against
  // our trust root. A chain byte-identical to the one our stored context
  // holds is checked in place: its held verdict is revalidated (no RSA
  // work while it holds), nothing is decoded, and its keys keep their
  // Montgomery contexts. Any other chain is decoded and walked. The old
  // context stays intact until the new one is durable.
  auto held = ri_contexts_.find(response.ri_id);
  const bool reuse = held != ri_contexts_.end() &&
                     same_chain(held->second.ri_chain, response);
  std::vector<pki::Certificate> decoded;
  if (!reuse) {
    try {
      decoded.push_back(
          pki::Certificate::from_der(response.ri_certificate_der));
      for (const Bytes& der : response.ri_certificate_chain_der) {
        decoded.push_back(pki::Certificate::from_der(der));
      }
    } catch (const Error& e) {
      return Result<>(AgentStatus::kCertificateInvalid,
                      std::string("RI certificate unparseable: ") + e.what());
    }
  }
  const std::vector<pki::Certificate>& ri_chain =
      reuse ? held->second.ri_chain : decoded;
  pki::ChainVerdict walked;
  pki::ChainVerdict& verdict = reuse ? held->second.verified_chain : walked;
  const pki::CertStatus chain_status =
      chain_verifier_.revalidate(verdict, ri_chain, now);
  if (chain_status == pki::CertStatus::kRevoked) {
    return Result<>(AgentStatus::kCertificateRevoked,
                    "RI certificate chain revoked");
  }
  if (chain_status != pki::CertStatus::kValid) {
    return Result<>(AgentStatus::kCertificateInvalid,
                    "RI certificate chain failed validation");
  }
  const pki::Certificate& ri_cert = ri_chain.front();

  // Verify the stapled OCSP response for the RI certificate.
  pki::OcspResponse ocsp;
  try {
    ocsp = pki::OcspResponse::from_der(response.ocsp_response_der);
  } catch (const Error& e) {
    return Result<>(AgentStatus::kOcspInvalid,
                    std::string("stapled OCSP unparseable: ") + e.what());
  }
  // Our profile has the CA sign OCSP responses with the root key.
  switch (pki::check_ocsp(ocsp, ri_cert.serial(), pending.ocsp_nonce,
                          trust_root_.subject_key(), now, kMaxOcspAge,
                          crypto_)) {
    case pki::OcspCheck::kGood:
      break;
    case pki::OcspCheck::kRevoked:
      // A held verdict naming the revoked serial must stop vouching.
      chain_verifier_.invalidate_serial(ri_cert.serial());
      return Result<>(AgentStatus::kCertificateRevoked,
                      "stapled OCSP response rejected");
    case pki::OcspCheck::kInvalid:
      return Result<>(AgentStatus::kOcspInvalid,
                      "stapled OCSP response rejected");
  }

  // Verify the message signature with the (now trusted) RI key.
  if (!crypto_.pss_verify(ri_cert.subject_key(), response.payload(),
                          response.signature)) {
    return Result<>(AgentStatus::kSignatureInvalid,
                    "RegistrationResponse signature rejected");
  }

  RiContext ctx;
  ctx.ri_id = response.ri_id;
  ctx.ri_url = response.ri_url;
  ctx.established_at = now;
  // Durability before acknowledgement: the RI Context the standard says
  // the device "saves" must actually survive a crash after this returns.
  if (store_ != nullptr) {
    store::Transaction tx;
    tx.put(ri_record_key(ctx.ri_id), encode_ri_context(ctx, ri_chain));
    Result<> committed = store_->commit(tx);
    if (!committed.ok()) return committed;
  }
  // `ri_chain` and `verdict` may alias the held context, which this
  // assignment replaces: take them out first.
  ctx.ri_chain = reuse ? std::move(held->second.ri_chain) : std::move(decoded);
  ctx.verified_chain = std::move(verdict);
  ri_contexts_[ctx.ri_id] = std::move(ctx);
  return Result<>();
}

// ---------------------------------------------------------------------------
// Phase 2: Acquisition
// ---------------------------------------------------------------------------

roap::RoRequest DrmAgent::make_ro_request(const std::string& ri_id,
                                          const std::string& ro_id,
                                          Bytes& device_nonce) {
  roap::RoRequest request;
  request.device_id = device_id_;
  request.ri_id = ri_id;
  request.ro_id = ro_id;
  request.device_nonce = rng_.bytes(roap::kNonceLen);
  request.signature = crypto_.pss_sign(key_, request.payload(), rng_);
  device_nonce = request.device_nonce;
  return request;
}

Result<roap::ProtectedRo> DrmAgent::accept_ro_response(
    const roap::RoResponse& response, const std::string& ri_id,
    ByteView expected_nonce, std::uint64_t now) {
  // Bind the response to the session's requested RI before trusting any
  // field in it — a valid response from a *different* RI context must
  // not satisfy this exchange.
  if (response.ri_id != ri_id) {
    return Result<roap::ProtectedRo>(
        AgentStatus::kNonceMismatch,
        "ROResponse from '" + response.ri_id + "', session is with '" +
            ri_id + "'");
  }
  auto ctx = ri_contexts_.find(ri_id);
  if (ctx == ri_contexts_.end()) {
    return Result<roap::ProtectedRo>(AgentStatus::kNoRiContext,
                                     "no RI context for " + ri_id);
  }
  // Verify the context again at the moment of use — no RSA work while
  // the held verdict holds, a full chain walk when it does not.
  Result<> valid = revalidate_context(ctx->second, now);
  if (!valid.ok()) return propagate<roap::ProtectedRo>(valid);

  if (response.status != Status::kSuccess) {
    return Result<roap::ProtectedRo>(
        roap::status_code(response.status),
        std::string("RI reported ") + roap::to_string(response.status) +
            " in ROResponse");
  }
  if (!ct_equal(response.device_nonce, expected_nonce)) {
    return Result<roap::ProtectedRo>(
        AgentStatus::kNonceMismatch,
        "ROResponse not bound to our request nonce");
  }
  if (!crypto_.pss_verify(ctx->second.ri_certificate().subject_key(),
                          response.payload(), response.signature)) {
    return Result<roap::ProtectedRo>(AgentStatus::kSignatureInvalid,
                                     "ROResponse signature rejected");
  }
  if (response.ros.empty()) {
    return Result<roap::ProtectedRo>(AgentStatus::kRiAborted,
                                     "ROResponse carried no RO");
  }
  return Result<roap::ProtectedRo>(response.ros.front());
}

Result<roap::ProtectedRo> DrmAgent::acquire_ro(
    roap::Transport& transport, const std::string& ri_id,
    const std::string& ro_id, std::uint64_t now,
    const roap::RetryPolicy& policy) {
  return AcquisitionSession(*this, ri_id, ro_id, now).run(transport, policy);
}

// ---------------------------------------------------------------------------
// Phase 3: Installation (paper §2.4.3 / Figure 3)
// ---------------------------------------------------------------------------

AgentStatus DrmAgent::install_ro(const roap::ProtectedRo& ro,
                                 std::uint64_t now) {
  (void)now;
  // Unwrap K_MAC || K_REK.
  Bytes kmac_krek;
  if (ro.is_domain_ro) {
    auto dk = domain_keys_.find(ro.domain_id);
    if (dk == domain_keys_.end()) return AgentStatus::kNoDomainKey;
    // A key of the wrong generation cannot unwrap this RO; require a
    // re-join instead of burning an unwrap that is guaranteed to fail.
    if (dk->second.second != ro.domain_generation) {
      return AgentStatus::kNoDomainKey;
    }
    auto unwrapped = crypto_.aes_unwrap(dk->second.first, ro.wrapped_keys);
    if (!unwrapped) return AgentStatus::kUnwrapFailed;
    kmac_krek = std::move(*unwrapped);
  } else {
    const std::size_t k = key_.byte_length();
    if (ro.wrapped_keys.size() < k + 24) return AgentStatus::kUnwrapFailed;
    // C1 -> RSADP -> Z -> KDF2 -> KEK (one RSA private-key operation).
    Bytes kek = crypto_.kem_decapsulate(
        key_, ByteView(ro.wrapped_keys).subspan(0, k));
    auto unwrapped =
        crypto_.aes_unwrap(kek, ByteView(ro.wrapped_keys).subspan(k));
    if (!unwrapped) return AgentStatus::kUnwrapFailed;
    kmac_krek = std::move(*unwrapped);
  }
  if (kmac_krek.size() != 32) return AgentStatus::kUnwrapFailed;
  ByteView kmac = ByteView(kmac_krek).subspan(0, 16);

  // RO integrity & authenticity (key-confirmation MAC).
  if (!crypto_.hmac_verify(kmac, ro.mac_payload(), ro.mac)) {
    return AgentStatus::kMacMismatch;
  }

  // RO signature: mandatory for Domain ROs, verified when present.
  if (ro.is_domain_ro || !ro.signature.empty()) {
    auto ctx = ri_contexts_.find(ro.ri_id);
    if (ctx == ri_contexts_.end()) return AgentStatus::kNoRiContext;
    if (ro.signature.empty() ||
        !crypto_.pss_verify(ctx->second.ri_certificate().subject_key(),
                            ro.signed_payload(), ro.signature)) {
      return AgentStatus::kRoSignatureInvalid;
    }
  }

  // Replace the PKI protection with the device key: C2dev (Figure 3).
  Bytes c2dev = crypto_.aes_wrap(kdev_, kmac_krek);

  const std::string& ro_id = ro.rights.ro_id;
  // Persist before the RAM install so a refused commit leaves no
  // half-installed RO. The fresh all-zero constraint state is written
  // explicitly: a replaced RO must not re-attach its predecessor's burns
  // on the next reload.
  if (store_ != nullptr) {
    store::Transaction tx;
    tx.put(ro_record_key(ro_id), encode_installed_ro(ro, c2dev));
    tx.put(state_record_key(ro_id), zero_enforcer_state());
    if (!store_->commit(tx).ok()) return AgentStatus::kStoreFailure;
  }
  if (auto replaced = installed_.find(ro_id); replaced != installed_.end()) {
    // The id may now bind other content: the previous content's index
    // must stop naming it.
    const std::string& old_cid = replaced->second.ro.rights.content_id;
    if (old_cid != ro.rights.content_id) {
      std::erase(by_content_[old_cid], ro_id);
    }
    installed_.erase(replaced);
  }
  installed_.emplace(ro_id, InstalledRo(ro, std::move(c2dev)));
  auto& index = by_content_[ro.rights.content_id];
  bool known = false;
  for (const auto& id : index) known |= (id == ro_id);
  if (!known) index.push_back(ro_id);
  return AgentStatus::kOk;
}

const InstalledRo* DrmAgent::installed_ro(const std::string& ro_id) const {
  auto it = installed_.find(ro_id);
  return it == installed_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// Phase 4: Consumption (paper §2.4.4 — every access)
// ---------------------------------------------------------------------------

ConsumeResult DrmAgent::consume(const dcf::Dcf& dcf,
                                rel::PermissionType permission,
                                std::uint64_t now,
                                std::uint64_t duration_secs) {
  ConsumeResult out;
  ContentSession session = open_content(dcf, permission, now, duration_secs);
  out.status = session.status();
  out.decision = session.decision();
  out.ro_id = session.ro_id();
  if (!session.ok()) return out;
  out.content = session.read_all();
  if (!session.ok()) {
    // Integrity failure surfaced at the final block (recorded size vs
    // actual padding): report it, hand out nothing.
    out.status = session.status();
    out.content.clear();
  }
  return out;
}

ContentSession DrmAgent::open_content(const dcf::Dcf& dcf,
                                      rel::PermissionType permission,
                                      std::uint64_t now,
                                      std::uint64_t duration_secs) {
  // The container hash is computed at most once per Dcf (cached); the
  // cost model still sees the paper's per-access hashing via the charge
  // inside open_content_impl.
  return open_content_impl(dcf.headers().content_id, dcf.hash(),
                           dcf.serialized_size(), dcf.iv(),
                           dcf.encrypted_payload(), dcf.plaintext_size(),
                           permission, now, duration_secs);
}

ContentSession DrmAgent::open_content(const dcf::DcfReader& dcf,
                                      rel::PermissionType permission,
                                      std::uint64_t now,
                                      std::uint64_t duration_secs) {
  return open_content_impl(dcf.content_id(), dcf.hash(), dcf.wire().size(),
                           dcf.iv(), dcf.encrypted_payload(),
                           dcf.plaintext_size(), permission, now,
                           duration_secs);
}

ContentSession DrmAgent::open_content_impl(
    std::string_view content_id, ByteView dcf_hash,
    std::size_t container_bytes, ByteView iv, ByteView payload,
    std::uint64_t plaintext_size, rel::PermissionType permission,
    std::uint64_t now, std::uint64_t duration_secs) {
  ContentSession session;
  auto index = by_content_.find(content_id);
  if (index == by_content_.end() || index->second.empty()) {
    session.status_ = AgentStatus::kNotInstalled;
    return session;
  }

  for (const std::string& ro_id : index->second) {
    InstalledRo& inst = installed_.at(ro_id);
    session.ro_id_ = ro_id;

    // Step 1: decrypt C2dev with K_DEV.
    auto kmac_krek = crypto_.aes_unwrap(kdev_, inst.c2dev);
    if (!kmac_krek || kmac_krek->size() != 32) {
      session.status_ = AgentStatus::kUnwrapFailed;
      return session;
    }
    ByteView kmac = ByteView(*kmac_krek).subspan(0, 16);
    ByteView krek = ByteView(*kmac_krek).subspan(16, 16);

    // Step 2: verify RO integrity via its MAC.
    if (!crypto_.hmac_verify(kmac, inst.ro.mac_payload(), inst.ro.mac)) {
      session.status_ = AgentStatus::kMacMismatch;
      return session;
    }

    // Step 3: verify DCF integrity against the hash in the RO. The hash
    // itself was computed once for the container (Dcf caches it, the
    // reader folds it into parsing); the paper's per-access hashing cost
    // is still charged to the cycle model.
    crypto_.charge_sha1(container_bytes);
    if (!ct_equal(dcf_hash, inst.ro.rights.dcf_hash)) {
      session.status_ = AgentStatus::kDcfHashMismatch;
      return session;
    }

    // Unlock the chain: K_REK -> K_CEK. This (and the size-consistency
    // check below) is stateless, so it runs BEFORE the budget burns: a
    // corrupted install or inconsistent container must fail without
    // consuming — and, store-backed, without durably draining a count
    // per retry.
    auto kcek = crypto_.aes_unwrap(krek, inst.ro.enc_kcek);
    if (!kcek) {
      session.status_ = AgentStatus::kUnwrapFailed;
      return session;
    }

    // A container whose payload cannot possibly unpad to the recorded
    // plaintext size is inconsistent with the hash the RO bound.
    if (payload.size() <= plaintext_size ||
        payload.size() - plaintext_size > crypto::Aes::kBlockSize) {
      session.status_ = AgentStatus::kDcfHashMismatch;
      return session;
    }

    // REL constraint evaluation; try the next RO for this content when
    // this one denies (multiple ROs per DCF are legal, paper §2.4.3).
    const rel::RightsEnforcer::State pre_burn =
        inst.enforcer.state(permission);
    rel::Decision decision =
        inst.enforcer.check_and_consume(permission, now, duration_secs);
    session.decision_ = decision;
    if (decision != rel::Decision::kGranted) {
      session.status_ = AgentStatus::kPermissionDenied;
      continue;
    }

    // Durable-burn barrier: the consumed budget commits to secure
    // storage BEFORE any session is returned. Every check that could
    // still refuse this access sits above, so a committed burn always
    // corresponds to a delivered session; a crash after this point
    // reloads the burn, a crash before it loses only a grant that was
    // never delivered. When the store cannot commit, durability cannot
    // be guaranteed — the RAM burn is reverted and the access refused
    // (fail closed, never fail open into an unaccounted grant).
    if (store_ != nullptr) {
      store::Transaction tx;
      tx.put(state_record_key(ro_id), encode_enforcer_state(inst.enforcer));
      Result<> committed = store_->commit(tx);
      if (!committed.ok()) {
        inst.enforcer.restore_state(permission, pre_burn);
        session.status_ = AgentStatus::kStoreFailure;
        return session;
      }
    }

    // One-time bulk-decrypt setup: the session's own key schedule (the
    // per-access AES-CBC cost is charged here; the chunked reads execute
    // it through the fused core) and the borrowed-ciphertext stream.
    session.aes_ = std::make_unique<const crypto::Aes>(*kcek);
    crypto_.charge_aes_cbc_decrypt(payload.size());
    session.stream_ = crypto::CbcDecryptStream(*session.aes_, iv, payload);
    session.plaintext_size_ = plaintext_size;
    session.status_ = AgentStatus::kOk;
    return session;
  }
  return session;  // last denial
}

// ---------------------------------------------------------------------------
// Domains
// ---------------------------------------------------------------------------

roap::JoinDomainRequest DrmAgent::make_join_domain_request(
    const std::string& ri_id, const std::string& domain_id,
    Bytes& device_nonce) {
  roap::JoinDomainRequest request;
  request.device_id = device_id_;
  request.ri_id = ri_id;
  request.domain_id = domain_id;
  request.device_nonce = rng_.bytes(roap::kNonceLen);
  request.signature = crypto_.pss_sign(key_, request.payload(), rng_);
  device_nonce = request.device_nonce;
  return request;
}

Result<> DrmAgent::accept_join_domain_response(
    const roap::JoinDomainResponse& response, const std::string& ri_id,
    const std::string& domain_id, ByteView expected_nonce) {
  auto ctx = ri_contexts_.find(ri_id);
  if (ctx == ri_contexts_.end()) {
    return Result<>(AgentStatus::kNoRiContext, "no RI context for " + ri_id);
  }
  if (response.status != Status::kSuccess) {
    return Result<>(roap::status_code(response.status),
                    std::string("RI reported ") +
                        roap::to_string(response.status) +
                        " in JoinDomainResponse");
  }
  // Bind the response to this session: the echoed nonce proves freshness
  // (a replayed join cannot re-key the device) and the domain id proves
  // it answers *this* join, not an older one for another domain.
  if (!ct_equal(response.device_nonce, expected_nonce)) {
    return Result<>(AgentStatus::kNonceMismatch,
                    "JoinDomainResponse not bound to our request nonce");
  }
  if (response.domain_id != domain_id) {
    return Result<>(AgentStatus::kNonceMismatch,
                    "JoinDomainResponse for domain '" + response.domain_id +
                        "', requested '" + domain_id + "'");
  }
  if (!crypto_.pss_verify(ctx->second.ri_certificate().subject_key(),
                          response.payload(), response.signature)) {
    return Result<>(AgentStatus::kSignatureInvalid,
                    "JoinDomainResponse signature rejected");
  }

  const std::size_t k = key_.byte_length();
  if (response.wrapped_domain_key.size() < k + 24) {
    return Result<>(AgentStatus::kUnwrapFailed,
                    "wrapped domain key too short");
  }
  Bytes kek = crypto_.kem_decapsulate(
      key_, ByteView(response.wrapped_domain_key).subspan(0, k));
  auto domain_key =
      crypto_.aes_unwrap(kek, ByteView(response.wrapped_domain_key).subspan(k));
  if (!domain_key || domain_key->size() != 16) {
    return Result<>(AgentStatus::kUnwrapFailed,
                    "domain key failed AES-UNWRAP integrity check");
  }
  std::pair<Bytes, std::uint32_t> entry{std::move(*domain_key),
                                        response.generation};
  if (store_ != nullptr) {
    store::Transaction tx;
    tx.put(domain_record_key(response.domain_id),
           encode_domain_key(response.domain_id, entry));
    Result<> committed = store_->commit(tx);
    if (!committed.ok()) return committed;
  }
  domain_keys_[response.domain_id] = std::move(entry);
  return Result<>();
}

roap::LeaveDomainRequest DrmAgent::make_leave_domain_request(
    const std::string& ri_id, const std::string& domain_id,
    Bytes& device_nonce) {
  roap::LeaveDomainRequest request;
  request.device_id = device_id_;
  request.ri_id = ri_id;
  request.domain_id = domain_id;
  request.device_nonce = rng_.bytes(roap::kNonceLen);
  request.signature = crypto_.pss_sign(key_, request.payload(), rng_);
  device_nonce = request.device_nonce;
  return request;
}

Result<> DrmAgent::accept_leave_domain_response(
    const roap::LeaveDomainResponse& response, const std::string& ri_id,
    const std::string& domain_id, ByteView expected_nonce) {
  auto ctx = ri_contexts_.find(ri_id);
  if (ctx == ri_contexts_.end()) {
    return Result<>(AgentStatus::kNoRiContext, "no RI context for " + ri_id);
  }
  if (response.status != Status::kSuccess) {
    return Result<>(roap::status_code(response.status),
                    std::string("RI reported ") +
                        roap::to_string(response.status) +
                        " in LeaveDomainResponse");
  }
  if (!ct_equal(response.device_nonce, expected_nonce)) {
    return Result<>(AgentStatus::kNonceMismatch,
                    "LeaveDomainResponse not bound to our request nonce");
  }
  if (!crypto_.pss_verify(ctx->second.ri_certificate().subject_key(),
                          response.payload(), response.signature)) {
    return Result<>(AgentStatus::kSignatureInvalid,
                    "LeaveDomainResponse signature rejected");
  }

  // Compliance: discard K_D and uninstall this domain's Rights Objects.
  // The RAM discard happens unconditionally (keeping keys is never the
  // safe direction); a store that then refuses the matching erase is
  // reported so the caller knows the medium may resurrect them on the
  // next reload.
  store::Transaction tx;
  tx.erase(domain_record_key(domain_id));
  domain_keys_.erase(domain_id);
  for (auto it = installed_.begin(); it != installed_.end();) {
    if (it->second.ro.is_domain_ro && it->second.ro.domain_id == domain_id) {
      auto& index = by_content_[it->second.ro.rights.content_id];
      std::erase(index, it->first);
      tx.erase(ro_record_key(it->first));
      tx.erase(state_record_key(it->first));
      it = installed_.erase(it);
    } else {
      ++it;
    }
  }
  if (store_ != nullptr) {
    Result<> committed = store_->commit(tx);
    if (!committed.ok()) return committed;
  }
  return Result<>();
}

Result<> DrmAgent::join_domain(roap::Transport& transport,
                               const std::string& ri_id,
                               const std::string& domain_id, std::uint64_t now,
                               const roap::RetryPolicy& policy) {
  return DomainSession(*this, DomainSession::Kind::kJoin, ri_id, domain_id,
                       now)
      .run(transport, policy);
}

Result<> DrmAgent::leave_domain(roap::Transport& transport,
                                const std::string& ri_id,
                                const std::string& domain_id,
                                std::uint64_t now,
                                const roap::RetryPolicy& policy) {
  return DomainSession(*this, DomainSession::Kind::kLeave, ri_id, domain_id,
                       now)
      .run(transport, policy);
}

Result<roap::ProtectedRo> DrmAgent::handle_trigger(
    roap::Transport& transport, const roap::RoAcquisitionTrigger& trigger,
    std::uint64_t now, const roap::RetryPolicy& policy) {
  if (!trigger.domain_id.empty() && !has_domain_key(trigger.domain_id)) {
    Result<> join = join_domain(transport, trigger.ri_id, trigger.domain_id,
                                now, policy);
    if (!join.ok()) return propagate<roap::ProtectedRo>(join);
  }
  return acquire_ro(transport, trigger.ri_id, trigger.ro_id, now, policy);
}

bool DrmAgent::has_domain_key(const std::string& domain_id) const {
  return domain_keys_.count(domain_id) > 0;
}

std::optional<std::uint32_t> DrmAgent::domain_generation(
    const std::string& domain_id) const {
  auto it = domain_keys_.find(domain_id);
  if (it == domain_keys_.end()) return std::nullopt;
  return it->second.second;
}

std::optional<std::uint32_t> DrmAgent::remaining_count(
    const std::string& ro_id, rel::PermissionType permission) const {
  auto it = installed_.find(ro_id);
  if (it == installed_.end()) return std::nullopt;
  return it->second.enforcer.remaining_count(permission);
}

// ---------------------------------------------------------------------------
// Persistence (secure-storage records + export/import wrappers)
// ---------------------------------------------------------------------------

namespace {

std::uint64_t parse_u64_attr(const xml::Node& e, std::string_view key) {
  const std::string_view s = e.require_attr(key);
  std::optional<std::uint64_t> v = parse_u64_dec(s);
  if (!v) {
    throw Error(ErrorKind::kFormat,
                "agent state: bad number " + std::string(s));
  }
  return *v;
}

std::uint32_t parse_u32_attr(const xml::Node& e, std::string_view key) {
  const std::uint64_t v = parse_u64_attr(e, key);
  if (v > 0xffffffffull) {
    throw Error(ErrorKind::kFormat, "agent state: number overflow on " +
                                        std::string(key));
  }
  return static_cast<std::uint32_t>(v);
}

/// Parses a stored XML document into `arena` (reset first); throws
/// kFormat with `error` unless its root element is `root`.
const xml::Node& parse_doc(xml::Arena& arena, ByteView doc,
                           std::string_view root, const char* error) {
  arena.reset();
  const xml::Node& n = xml::parse_in(
      arena,
      std::string_view(reinterpret_cast<const char*>(doc.data()), doc.size()));
  if (n.name() != root) {
    throw Error(ErrorKind::kFormat, error);
  }
  return n;
}

void restore_enforcer_state(rel::RightsEnforcer& enforcer, ByteView value) {
  if (value.size() != std::size(kAllPermissions) * kStateSlot) {
    throw Error(ErrorKind::kFormat,
                "agent state: constraint state record malformed");
  }
  const std::uint8_t* p = value.data();
  for (rel::PermissionType perm : kAllPermissions) {
    rel::RightsEnforcer::State s;
    s.used = load_be32(p);
    if (p[4] > 1) {
      throw Error(ErrorKind::kFormat,
                  "agent state: constraint state record malformed");
    }
    if (p[4] == 1) s.first_use = load_be64(p + 5);
    s.accumulated = load_be64(p + 13);
    enforcer.restore_state(perm, s);
    p += kStateSlot;
  }
}

}  // namespace

Bytes DrmAgent::encode_identity() const {
  std::string out;
  xml::Writer w(out);
  w.open("identity");
  w.attr("device-id", device_id_);
  w.open("device-key");
  w.attr("n", to_hex_number(key_.public_key().n()));
  w.attr("e", to_hex_number(key_.public_key().e()));
  w.attr("d", to_hex_number(key_.d()));
  if (key_.has_crt()) {
    w.attr("p", to_hex_number(key_.p()));
    w.attr("q", to_hex_number(key_.q()));
    w.attr("dp", to_hex_number(key_.dp()));
    w.attr("dq", to_hex_number(key_.dq()));
    w.attr("qinv", to_hex_number(key_.qinv()));
  }
  w.close();
  if (is_provisioned()) {
    w.b64_element("certificate", certificate_.to_der());
  }
  w.close();
  return to_bytes(out);
}

Bytes DrmAgent::encode_ri_context(
    const RiContext& ctx, const std::vector<pki::Certificate>& ri_chain) {
  std::string out;
  xml::Writer w(out);
  w.open("ri-context");
  w.attr("id", ctx.ri_id);
  w.attr("url", ctx.ri_url);
  w.attr("established", std::to_string(ctx.established_at));
  w.b64_element("certificate", ri_chain.front().to_der());
  // Intermediates beyond the leaf (ri_chain[0] is the certificate above).
  for (std::size_t i = 1; i < ri_chain.size(); ++i) {
    w.b64_element("intermediate", ri_chain[i].to_der());
  }
  w.close();
  return to_bytes(out);
}

Bytes DrmAgent::encode_domain_key(
    const std::string& domain_id,
    const std::pair<Bytes, std::uint32_t>& entry) {
  std::string out;
  xml::Writer w(out);
  w.open("domain-key");
  w.attr("id", domain_id);
  w.attr("generation", std::to_string(entry.second));
  w.base64(entry.first);
  w.close();
  return to_bytes(out);
}

Bytes DrmAgent::encode_installed_ro(const roap::ProtectedRo& ro,
                                    const Bytes& c2dev) {
  std::string out;
  xml::Writer w(out);
  w.open("installed-ro");
  ro.write(w);
  w.b64_element("c2dev", c2dev);
  w.close();
  return to_bytes(out);
}

Bytes DrmAgent::encode_enforcer_state(const rel::RightsEnforcer& enforcer) {
  Bytes out;
  out.reserve(std::size(kAllPermissions) * kStateSlot);
  for (rel::PermissionType perm : kAllPermissions) {
    rel::RightsEnforcer::State s = enforcer.state(perm);
    append_be32(out, s.used);
    out.push_back(s.first_use ? 1 : 0);
    append_be64(out, s.first_use.value_or(0));
    append_be64(out, s.accumulated);
  }
  return out;
}

std::vector<store::Record> DrmAgent::render_records() const {
  std::vector<store::Record> out;
  out.push_back(store::Record{kIdentityKey, encode_identity()});
  for (const auto& [id, ctx] : ri_contexts_) {
    out.push_back(store::Record{ri_record_key(id),
                                encode_ri_context(ctx, ctx.ri_chain)});
  }
  for (const auto& [id, entry] : domain_keys_) {
    out.push_back(
        store::Record{domain_record_key(id), encode_domain_key(id, entry)});
  }
  for (const auto& [ro_id, inst] : installed_) {
    out.push_back(store::Record{ro_record_key(ro_id),
                                encode_installed_ro(inst.ro, inst.c2dev)});
    out.push_back(store::Record{state_record_key(ro_id),
                                encode_enforcer_state(inst.enforcer)});
  }
  return out;
}

/// A rejected image or a refused store commit must leave the agent
/// untouched, not gutted halfway (mirroring RightsIssuer::bind_store) —
/// hence parse into this, then adopt().
struct DrmAgent::ParsedState {
  std::string device_id;
  rsa::PrivateKey rsa_key;
  pki::Certificate certificate;
  std::map<std::string, RiContext> ri_contexts;
  std::map<std::string, std::pair<Bytes, std::uint32_t>> domain_keys;
  std::map<std::string, InstalledRo> installed;
  std::map<std::string, std::vector<std::string>, std::less<>> by_content;
};

DrmAgent::ParsedState DrmAgent::parse_records(
    const std::vector<store::Record>& records) {
  ParsedState out;
  std::string& device_id = out.device_id;
  rsa::PrivateKey& rsa_key = out.rsa_key;
  pki::Certificate& certificate = out.certificate;
  auto& ri_contexts = out.ri_contexts;
  auto& domain_keys = out.domain_keys;
  auto& installed = out.installed;
  auto& by_content = out.by_content;

  bool have_identity = false;
  xml::Arena arena;  // reset per record; parsed fields are copied out
  // Constraint state applies after every RO exists, independent of the
  // record order a caller hands us.
  std::vector<const store::Record*> state_records;

  for (const store::Record& rec : records) {
    const std::string_view key = rec.key;
    if (key == kIdentityKey) {
      const xml::Node& root =
          parse_doc(arena, rec.value, "identity",
                    "agent state: bad identity record");
      device_id = root.require_attr("device-id");
      const xml::Node& k = root.require_child("device-key");
      auto hex_attr = [&k](std::string_view name) {
        return from_hex_number(k.require_attr(name));
      };
      const Bytes n = hex_attr("n"), e = hex_attr("e"), d = hex_attr("d");
      if (k.attr("p") != nullptr) {
        const Bytes p = hex_attr("p"), q = hex_attr("q"), dp = hex_attr("dp"),
                    dq = hex_attr("dq"), qinv = hex_attr("qinv");
        rsa_key = rsa::PrivateKey(rsa::PublicKey(n, e), d, p, q, dp, dq, qinv);
      } else {
        rsa_key = rsa::PrivateKey(rsa::PublicKey(n, e), d);
      }
      if (const xml::Node* cert = root.child("certificate")) {
        certificate = pki::Certificate::from_der(base64_decode(cert->text()));
      }
      have_identity = true;
    } else if (key.starts_with("ri/")) {
      const xml::Node& e =
          parse_doc(arena, rec.value, "ri-context",
                    "agent state: bad ri record");
      RiContext ctx;
      ctx.ri_id = e.require_attr("id");
      if (ctx.ri_id != key.substr(3)) {
        throw Error(ErrorKind::kFormat, "agent state: ri record key skew");
      }
      ctx.ri_url = e.require_attr("url");
      ctx.established_at = parse_u64_attr(e, "established");
      ctx.ri_chain.push_back(pki::Certificate::from_der(
          base64_decode(e.child_text("certificate"))));
      for (const xml::Node* ic : e.children_named("intermediate")) {
        ctx.ri_chain.push_back(
            pki::Certificate::from_der(base64_decode(ic->text())));
      }
      ri_contexts[ctx.ri_id] = std::move(ctx);
    } else if (key.starts_with("dom/")) {
      const xml::Node& e =
          parse_doc(arena, rec.value, "domain-key",
                    "agent state: bad domain record");
      const std::string domain_id(e.require_attr("id"));
      if (domain_id != key.substr(4)) {
        // A skewed record would load under one id but be addressed (and
        // erased) under another — an undeletable stale domain key.
        throw Error(ErrorKind::kFormat,
                    "agent state: domain record key skew");
      }
      domain_keys[domain_id] = {base64_decode(e.text()),
                                parse_u32_attr(e, "generation")};
    } else if (key.starts_with("ro/")) {
      const xml::Node& e =
          parse_doc(arena, rec.value, "installed-ro",
                    "agent state: bad ro record");
      roap::ProtectedRo ro =
          roap::ProtectedRo::from_node(e.require_child("roap:protectedRO"));
      Bytes c2dev = base64_decode(e.child_text("c2dev"));
      const std::string ro_id = ro.rights.ro_id;
      if (ro_id != key.substr(3)) {
        throw Error(ErrorKind::kFormat, "agent state: ro record key skew");
      }
      const std::string content_id = ro.rights.content_id;
      auto [it, inserted] = installed.emplace(
          ro_id, InstalledRo(std::move(ro), std::move(c2dev)));
      if (!inserted) {
        throw Error(ErrorKind::kFormat, "agent state: duplicate RO");
      }
      by_content[content_id].push_back(ro_id);
    } else if (key.starts_with("st/")) {
      state_records.push_back(&rec);
    } else {
      throw Error(ErrorKind::kFormat,
                  "agent state: unknown record key '" + rec.key + "'");
    }
  }
  if (!have_identity) {
    throw Error(ErrorKind::kFormat, "agent state: missing identity record");
  }
  for (const store::Record* rec : state_records) {
    auto it = installed.find(rec->key.substr(3));
    if (it == installed.end()) {
      throw Error(ErrorKind::kFormat,
                  "agent state: constraint state for unknown RO '" +
                      rec->key + "'");
    }
    restore_enforcer_state(it->second.enforcer, rec->value);
  }
  return out;
}

void DrmAgent::adopt(ParsedState&& parsed) {
  device_id_ = std::move(parsed.device_id);
  key_ = std::move(parsed.rsa_key);
  certificate_ = std::move(parsed.certificate);
  ri_contexts_ = std::move(parsed.ri_contexts);
  domain_keys_ = std::move(parsed.domain_keys);
  installed_ = std::move(parsed.installed);
  by_content_ = std::move(parsed.by_content);
}

void DrmAgent::load_from_records(
    const std::vector<store::Record>& records) {
  adopt(parse_records(records));
}

Result<> DrmAgent::bind_store_impl(store::StateStore& s,
                                   bool require_identity) {
  Result<std::vector<store::Record>> loaded = s.load();
  if (!loaded.ok()) return Result<>(loaded.code(), loaded.context());

  bool has_identity = false;
  for (const store::Record& rec : *loaded) {
    has_identity |= (rec.key == kIdentityKey);
  }
  if (has_identity) {
    try {
      load_from_records(*loaded);
    } catch (const Error& e) {
      // Unsealed fine but semantically unusable — same fail-closed class
      // as a structural corruption.
      return Result<>(StatusCode::kStoreCorrupt,
                      std::string("agent: store image malformed: ") +
                          e.what());
    }
    store_ = &s;
    return Result<>();
  }
  if (require_identity) {
    return Result<>(StatusCode::kNotProvisioned,
                    "agent: store holds no agent identity");
  }
  if (!loaded->empty()) {
    // Records but no identity: this is some other entity's store (or a
    // mangled image). Seeding would tx.clear() state that is not ours —
    // fail closed instead.
    return Result<>(StatusCode::kStoreCorrupt,
                    "agent: store holds foreign records, refusing to seed");
  }
  // Empty store: seed it with the agent's current state.
  store::Transaction tx;
  tx.clear();
  std::vector<store::Record> records = render_records();
  for (store::Record& rec : records) {
    tx.put(rec.key, std::move(rec.value));
  }
  Result<> committed = s.commit(tx);
  if (!committed.ok()) return committed;
  store_ = &s;
  return Result<>();
}

Result<> DrmAgent::bind_store(store::StateStore& s) {
  return bind_store_impl(s, /*require_identity=*/false);
}

Result<DrmAgent> DrmAgent::from_store(store::StateStore& s, Bytes kdev,
                                      pki::Certificate trust_root,
                                      provider::CryptoProvider& crypto,
                                      Rng& rng) {
  DrmAgent agent(FromStoreTag{}, std::move(trust_root), crypto, rng,
                 std::move(kdev));
  Result<> bound = agent.bind_store_impl(s, /*require_identity=*/true);
  if (!bound.ok()) return propagate<DrmAgent>(bound);
  return Result<DrmAgent>(std::move(agent));
}

Bytes DrmAgent::export_state() const {
  // The blob is K_DEV plus exactly the record set a bound store carries —
  // export/import and store snapshots can never drift because they are
  // the same encoding.
  std::string out;
  xml::Writer w(out);
  w.open("agent-state");
  w.b64_element("kdev", kdev_);
  for (const store::Record& rec : render_records()) {
    w.open("record");
    w.attr("key", rec.key);
    w.base64(rec.value);
    w.close();
  }
  w.close();
  return to_bytes(out);
}

void DrmAgent::import_state(ByteView blob) {
  xml::Arena arena;
  const xml::Node& root =
      parse_doc(arena, blob, "agent-state",
                "agent state: wrong root element");
  Bytes kdev = base64_decode(root.child_text("kdev"));
  std::vector<store::Record> records;
  for (const xml::Node& e : root.children()) {
    if (e.name() == "record") {
      records.push_back(store::Record{std::string(e.require_attr("key")),
                                      base64_decode(e.text())});
    } else if (e.name() != "kdev") {
      throw Error(ErrorKind::kFormat, "agent state: unknown element <" +
                                          std::string(e.name()) + ">");
    }
  }

  // Parse first (throws kFormat on malformed input), then commit, then
  // adopt: a refused commit must leave BOTH the live state and the
  // store at the predecessor's image — adopting before committing would
  // let the next reboot silently roll back the imported burns.
  ParsedState parsed = parse_records(records);

  if (store_ != nullptr) {
    // Full-image replacement: the store must mirror the imported state,
    // not blend it with the predecessor's records.
    store::Transaction tx;
    tx.clear();
    for (const store::Record& rec : records) {
      tx.put(rec.key, rec.value);
    }
    Result<> committed = store_->commit(tx);
    if (!committed.ok()) {
      throw Error(ErrorKind::kState,
                  "agent: store refused imported image: " +
                      committed.describe());
    }
  }

  adopt(std::move(parsed));
  kdev_ = std::move(kdev);
}

}  // namespace omadrm::agent
