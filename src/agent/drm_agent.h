// DRM Agent — the trusted logical entity in the user's terminal
// (paper §2.1) and the component whose cryptographic workload the paper
// models. All four consumption-process phases are implemented:
//
//   Registration  (§2.4.1): 4-pass ROAP, RI certificate + OCSP + message
//                 signature verification, RI Context persistence.
//   Acquisition   (§2.4.2): signed RORequest / verified ROResponse.
//   Installation  (§2.4.3): RSADP(C1) → KDF2 → AES-UNWRAP(C2) →
//                 MAC check → re-wrap under the device key K_DEV (C2dev),
//                 replacing the PKI protection with a symmetric one.
//   Consumption   (§2.4.4): per access — unwrap C2dev, verify the RO MAC,
//                 verify the DCF hash, then decrypt the content.
//
// The agent never talks to a Rights Issuer object. Every ROAP exchange
// flows through a roap::Transport as serialized roap::Envelope documents;
// the per-protocol state machines live in agent/sessions.h
// (RegistrationSession / AcquisitionSession / DomainSession), which own
// the pending nonces for exactly one handshake each. The protocol actions
// below (`register_with`, `acquire_ro`, ...) each construct one session
// and run it to completion over a transport under a retry policy
// (roap::kSingleShot unless the caller passes one).
//
// Every cryptographic operation goes through the injected CryptoProvider,
// which is how the cycle-cost model observes exactly the terminal-side
// work the paper charges.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "agent/content_session.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "dcf/dcf.h"
#include "dcf/dcf_reader.h"
#include "pki/authority.h"
#include "pki/chain.h"
#include "provider/provider.h"
#include "rel/rights.h"
#include "roap/envelope.h"
#include "roap/messages.h"
#include "roap/retry.h"
#include "roap/transport.h"
#include "store/state_store.h"

namespace omadrm::agent {

/// The agent's outcome codes are the unified stack-wide code space; the
/// historical name is kept so call sites read naturally
/// (AgentStatus::kMacMismatch). See common/status.h.
using AgentStatus = omadrm::StatusCode;
using omadrm::to_string;

/// The trusted-relationship record the agent persists after registration
/// (paper: "the DRM Agent saves information on the relationship with this
/// specific RI in the RI Context").
struct RiContext {
  std::string ri_id;
  std::string ri_url;
  /// Full RI certificate chain, leaf first; any entries beyond the first
  /// are intermediate CA certificates. Never empty once established.
  std::vector<pki::Certificate> ri_chain;

  /// The RI's own (leaf) certificate — the signer of ROAP responses.
  const pki::Certificate& ri_certificate() const { return ri_chain.front(); }
  /// The verdict of the chain's last walk — the paper's "the Device is
  /// not required to verify that Rights Issuer's certificate chain
  /// again". Not persisted: a loaded context starts unwalked. Every RI
  /// interaction revalidates it through the agent's ChainVerifier.
  pki::ChainVerdict verified_chain;
  std::uint64_t established_at = 0;
};

/// An installed Rights Object: the delivered RO plus the device-bound
/// re-wrapped keys and the stateful constraint enforcer.
struct InstalledRo {
  roap::ProtectedRo ro;
  Bytes c2dev;  // AES-WRAP(K_DEV, K_MAC || K_REK)
  rel::RightsEnforcer enforcer;

  InstalledRo(roap::ProtectedRo protected_ro, Bytes c2dev_bytes)
      : ro(std::move(protected_ro)),
        c2dev(std::move(c2dev_bytes)),
        enforcer(ro.rights) {}
};

/// Result of a consumption attempt.
struct ConsumeResult {
  AgentStatus status = AgentStatus::kNotInstalled;
  rel::Decision decision = rel::Decision::kNoSuchPermission;
  Bytes content;  // plaintext on success
  std::string ro_id;  // the RO that granted (or last denied) access
};

class RegistrationSession;
class AcquisitionSession;
class DomainSession;

class DrmAgent {
 public:
  /// Creates an agent with a fresh RSA key pair and device key K_DEV.
  /// `trust_root` is the baked-in CA root certificate.
  DrmAgent(std::string device_id, pki::Certificate trust_root,
           provider::CryptoProvider& crypto, Rng& rng,
           std::size_t key_bits = 1024);

  const std::string& device_id() const { return device_id_; }
  rsa::PublicKey public_key() const { return key_.public_key(); }

  /// Installs the certificate a CA issued over public_key().
  void provision(pki::Certificate device_certificate);
  bool is_provisioned() const { return !certificate_.to_der().empty(); }
  const pki::Certificate& certificate() const;

  // -- Phase 1: Registration ------------------------------------------------
  /// Runs one 4-pass registration over the transport. Under a
  /// multi-attempt `policy`, passes are retried with backoff (jitter from
  /// this agent's rng) and an expired RI session restarts the handshake
  /// from DeviceHello with fresh nonces. See RegistrationSession::run.
  Result<> register_with(roap::Transport& transport, std::uint64_t now,
                         const roap::RetryPolicy& policy = roap::kSingleShot);
  bool has_ri_context(const std::string& ri_id) const;
  const RiContext* ri_context(const std::string& ri_id) const;

  // -- Phase 2: Acquisition ---------------------------------------------------
  /// Runs one 2-pass RO acquisition over the transport (retry semantics
  /// as register_with). Requires an established RI context for `ri_id`.
  Result<roap::ProtectedRo> acquire_ro(
      roap::Transport& transport, const std::string& ri_id,
      const std::string& ro_id, std::uint64_t now,
      const roap::RetryPolicy& policy = roap::kSingleShot);

  // -- Phase 3: Installation -------------------------------------------------
  AgentStatus install_ro(const roap::ProtectedRo& ro, std::uint64_t now);
  const InstalledRo* installed_ro(const std::string& ro_id) const;
  std::size_t installed_count() const { return installed_.size(); }

  // -- Phase 4: Consumption ---------------------------------------------------
  /// One-shot access: open + drain into an owned buffer. A thin wrapper
  /// over open_content for callers that want the whole plaintext at once.
  ConsumeResult consume(const dcf::Dcf& dcf, rel::PermissionType permission,
                        std::uint64_t now, std::uint64_t duration_secs = 0);

  /// Streaming access (§2.4.4 split into one-time and per-chunk halves):
  /// performs the per-access trust decisions — C2dev unwrap, RO MAC, DCF
  /// hash binding, REL check_and_consume, CEK unwrap, the session's AES
  /// key schedule — and returns a session whose read()
  /// decrypts chunks into caller-owned buffers with zero allocations.
  /// On denial the session carries the status/decision consume() would
  /// have reported. The session borrows the container's payload bytes.
  ContentSession open_content(const dcf::Dcf& dcf,
                              rel::PermissionType permission,
                              std::uint64_t now,
                              std::uint64_t duration_secs = 0);
  /// The session borrows the container's payload — a temporary Dcf would
  /// leave it dangling before the first read().
  ContentSession open_content(dcf::Dcf&& dcf, rel::PermissionType permission,
                              std::uint64_t now,
                              std::uint64_t duration_secs = 0) = delete;
  /// Same, over a zero-copy reader: nothing is re-serialized or re-hashed
  /// (the reader computed the binding hash during its single parse pass).
  ContentSession open_content(const dcf::DcfReader& dcf,
                              rel::PermissionType permission,
                              std::uint64_t now,
                              std::uint64_t duration_secs = 0);

  /// Reacts to an RO-acquisition trigger pushed by the RI: joins the
  /// advertised domain first when needed, then acquires the RO. The
  /// trigger itself is untrusted — every security property comes from the
  /// triggered ROAP exchange. The join (when needed) and the acquisition
  /// each run under `policy`.
  Result<roap::ProtectedRo> handle_trigger(
      roap::Transport& transport, const roap::RoAcquisitionTrigger& trigger,
      std::uint64_t now, const roap::RetryPolicy& policy = roap::kSingleShot);

  // -- Domains ---------------------------------------------------------------
  // Domain membership changes (retry semantics as register_with).
  Result<> join_domain(roap::Transport& transport, const std::string& ri_id,
                       const std::string& domain_id, std::uint64_t now,
                       const roap::RetryPolicy& policy = roap::kSingleShot);
  /// Leaves a domain: discards K_D and uninstalls that domain's ROs.
  Result<> leave_domain(roap::Transport& transport, const std::string& ri_id,
                        const std::string& domain_id, std::uint64_t now,
                        const roap::RetryPolicy& policy = roap::kSingleShot);
  bool has_domain_key(const std::string& domain_id) const;
  /// Generation of the held domain key (nullopt if not a member).
  std::optional<std::uint32_t> domain_generation(
      const std::string& domain_id) const;

  // -- Persistence -------------------------------------------------------------
  // The agent's durable state is a set of store::Record units — identity
  // ("id"), RI contexts ("ri/<id>"), domain keys ("dom/<id>"), installed
  // ROs ("ro/<id>"), and per-RO constraint state ("st/<id>"). With a
  // bound StateStore every mutation commits through it *before* the
  // mutating call reports success; most critically, a stateful
  // check_and_consume burn is durable before open_content returns its
  // session, so a crash (or deliberate kill) at any point can never
  // refund a delivered grant. export_state/import_state are thin
  // wrappers over the same record set.

  /// Binds the agent to a durable store. When the store already holds an
  /// agent image (an "id" record) that image REPLACES this agent's state
  /// — the reboot path; K_DEV itself is never in the store (it seals it:
  /// construct the backend with derive_storage_key(device_key())). An
  /// empty store is seeded with the agent's current state. Fails closed
  /// (kStoreCorrupt / kStoreSealBroken / kStoreRollback / kStoreFailure)
  /// without binding.
  Result<> bind_store(store::StateStore& s);
  store::StateStore* bound_store() const { return store_; }

  /// "Reboot" entry point: reconstructs an agent whose entire persistent
  /// state lives in `s`, without generating a throwaway RSA key. `kdev`
  /// is the hardware-held device key (the one secret assumed to live in
  /// tamper-resistant storage); the store must have been sealed under a
  /// key derived from it. Fails with kNotProvisioned when the store holds
  /// no agent identity.
  static Result<DrmAgent> from_store(store::StateStore& s, Bytes kdev,
                                     pki::Certificate trust_root,
                                     provider::CryptoProvider& crypto,
                                     Rng& rng);

  /// The device key K_DEV — the root that seals installed ROs (C2dev) and
  /// the bound store. Models the key a real terminal keeps in hardware
  /// (which is why it is exposed: the reboot path needs to hand it back).
  const Bytes& device_key() const { return kdev_; }

  /// Serializes the agent's full persistent state — device RSA key, K_DEV,
  /// certificate, RI contexts, installed ROs (with consumption state), and
  /// domain keys — into an opaque blob: K_DEV plus the same records a
  /// bound store holds. The OMA standard leaves storage to the CA's
  /// robustness rules; this models the secure-storage image a real
  /// terminal keeps across power cycles (it contains key material and
  /// MUST live in protected memory). In-flight sessions are deliberately
  /// not part of the image: their nonces die with the session objects.
  Bytes export_state() const;
  /// Restores a blob produced by export_state(), replacing this agent's
  /// identity and state (a reboot of the same physical device). When a
  /// store is bound the imported image is committed through it as a full
  /// replacement. Throws omadrm::Error(kFormat) on malformed input.
  void import_state(ByteView blob);

  /// Remaining uses for a count-constrained permission of an installed RO.
  std::optional<std::uint32_t> remaining_count(
      const std::string& ro_id, rel::PermissionType permission) const;

 private:
  // The session state machines drive the build/process halves below and
  // own all pending-handshake state (nonces, session ids). Destroying an
  // abandoned session leaves no residue in the agent.
  friend class RegistrationSession;
  friend class AcquisitionSession;
  friend class DomainSession;

  struct PendingRegistration {
    std::string session_id;
    Bytes device_nonce;
    Bytes ocsp_nonce;
  };

  // Registration halves.
  roap::DeviceHello make_device_hello(PendingRegistration& pending);
  roap::RegistrationRequest make_registration_request(
      const roap::RiHello& ri_hello, PendingRegistration& pending);
  Result<> accept_registration_response(
      const roap::RegistrationResponse& response,
      const PendingRegistration& pending, std::uint64_t now);

  // Acquisition halves.
  roap::RoRequest make_ro_request(const std::string& ri_id,
                                  const std::string& ro_id,
                                  Bytes& device_nonce);
  Result<roap::ProtectedRo> accept_ro_response(
      const roap::RoResponse& response, const std::string& ri_id,
      ByteView expected_nonce, std::uint64_t now);

  // Domain halves.
  roap::JoinDomainRequest make_join_domain_request(const std::string& ri_id,
                                                   const std::string& domain_id,
                                                   Bytes& device_nonce);
  Result<> accept_join_domain_response(
      const roap::JoinDomainResponse& response, const std::string& ri_id,
      const std::string& domain_id, ByteView expected_nonce);
  roap::LeaveDomainRequest make_leave_domain_request(
      const std::string& ri_id, const std::string& domain_id,
      Bytes& device_nonce);
  Result<> accept_leave_domain_response(
      const roap::LeaveDomainResponse& response, const std::string& ri_id,
      const std::string& domain_id, ByteView expected_nonce);

  /// The shared §2.4.4 access path behind both open_content overloads:
  /// `container_bytes` is the serialized container size (for the cost
  /// model's per-access hashing charge), `dcf_hash` the precomputed
  /// container hash checked against the RO binding.
  ContentSession open_content_impl(std::string_view content_id,
                                   ByteView dcf_hash,
                                   std::size_t container_bytes, ByteView iv,
                                   ByteView payload,
                                   std::uint64_t plaintext_size,
                                   rel::PermissionType permission,
                                   std::uint64_t now,
                                   std::uint64_t duration_secs);

  /// Re-checks an established RI context's held verdict — the "verify
  /// prior to any interaction" rule, with no RSA work while it holds.
  Result<> revalidate_context(RiContext& ctx, std::uint64_t now);

  // -- Durable-state record units (shared by store commits and the
  // export/import blob, so the two can never drift) ------------------------
  struct FromStoreTag {};
  DrmAgent(FromStoreTag, pki::Certificate trust_root,
           provider::CryptoProvider& crypto, Rng& rng, Bytes kdev);

  Bytes encode_identity() const;
  /// `ri_chain` is passed apart from `ctx` so a re-registration can
  /// persist the new context while the chain still sits in the old one.
  static Bytes encode_ri_context(const RiContext& ctx,
                                 const std::vector<pki::Certificate>& ri_chain);
  static Bytes encode_domain_key(const std::string& domain_id,
                                 const std::pair<Bytes, std::uint32_t>& entry);
  static Bytes encode_installed_ro(const roap::ProtectedRo& ro,
                                   const Bytes& c2dev);
  static Bytes encode_enforcer_state(const rel::RightsEnforcer& enforcer);

  /// The full record set a store snapshot (or export blob) carries.
  std::vector<store::Record> render_records() const;
  /// One fully parsed (not yet adopted) agent image; parsing is
  /// separated from adoption so an image can be validated — and
  /// committed — before any live state changes.
  struct ParsedState;
  /// Throws omadrm::Error(kFormat) on any malformed record.
  static ParsedState parse_records(const std::vector<store::Record>& records);
  /// Replaces the live state (identity included, K_DEV excluded) in one
  /// step.
  void adopt(ParsedState&& parsed);
  /// parse_records + adopt. Throws omadrm::Error(kFormat) on malformed
  /// records, leaving the live state untouched.
  void load_from_records(const std::vector<store::Record>& records);
  Result<> bind_store_impl(store::StateStore& s, bool require_identity);

  std::string device_id_;
  pki::Certificate trust_root_;
  provider::CryptoProvider& crypto_;
  Rng& rng_;
  rsa::PrivateKey key_;
  Bytes kdev_;  // device-generated key replacing PKI protection at install
  pki::Certificate certificate_;
  /// Walks RI chains (one metered RSAVP1 per link, so the cost model sees
  /// exactly the certificate verification the paper charges) and keeps
  /// the revocation denylist; the verdicts live in the RI contexts.
  pki::ChainVerifier chain_verifier_;

  /// Durable secure storage; mutations commit through it before they are
  /// acknowledged. Null when unbound (RAM-only agent, the historical
  /// behaviour).
  store::StateStore* store_ = nullptr;

  std::map<std::string, RiContext> ri_contexts_;        // by ri_id
  std::map<std::string, InstalledRo> installed_;        // by ro_id
  // cid -> ro ids; heterogeneous lookup so the zero-copy reader's
  // string_view content id needs no temporary std::string.
  std::map<std::string, std::vector<std::string>, std::less<>> by_content_;
  std::map<std::string, std::pair<Bytes, std::uint32_t>> domain_keys_;
};

/// Maximum accepted OCSP response age (seconds).
inline constexpr std::uint64_t kMaxOcspAge = 7 * 24 * 3600;

}  // namespace omadrm::agent
