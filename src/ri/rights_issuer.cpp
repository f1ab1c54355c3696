#include "ri/rights_issuer.h"

#include <algorithm>
#include <cstring>
#include <span>

#include "common/error.h"
#include "crypto/sha1.h"

namespace omadrm::ri {

using omadrm::Error;
using omadrm::ErrorKind;
using roap::Status;

namespace {

// Store record keys: "sess/<session-id>" pending registration nonces,
// "dev/<device-id>" registered device certificates (raw DER), and
// "domain/<id>" domain key + membership; "meta" the session-id lease.
std::string sess_record_key(const std::string& id) { return "sess/" + id; }
std::string dev_record_key(const std::string& id) { return "dev/" + id; }
std::string domain_record_key(const std::string& id) {
  return "domain/" + id;
}
constexpr const char* kMetaKey = "meta";

void put_lv(Bytes& out, ByteView v) {
  append_be32(out, static_cast<std::uint32_t>(v.size()));
  out.insert(out.end(), v.begin(), v.end());
}

/// Throwing wrapper over the shared bounds-checked ByteReader: any short
/// read is a malformed image (kFormat, surfaced as kStoreCorrupt).
struct Reader {
  ByteReader r;

  explicit Reader(ByteView data) : r{data} {}
  std::size_t pos() const { return r.pos; }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    if (!r.take_u32(v)) throw Error(ErrorKind::kFormat, "ri state: short");
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    if (!r.take_u64(v)) throw Error(ErrorKind::kFormat, "ri state: short");
    return v;
  }
  ByteView lv() {
    const std::uint32_t n = u32();
    ByteView v;
    if (!r.take_bytes(n, v)) {
      throw Error(ErrorKind::kFormat, "ri state: short");
    }
    return v;
  }
};

/// FNV-1a — deterministic across processes (shard assignment is not an
/// ABI, but determinism keeps multi-process debugging sane).
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::size_t RightsIssuer::shard_of(std::string_view device_id) {
  static_assert((kShardCount & (kShardCount - 1)) == 0);
  return fnv1a(device_id) & (kShardCount - 1);
}

RightsIssuer::DomainStripe& RightsIssuer::stripe_for(
    std::string_view domain_id) {
  static_assert((kDomainStripes & (kDomainStripes - 1)) == 0);
  return domain_stripes_[fnv1a(domain_id) & (kDomainStripes - 1)];
}

const RightsIssuer::DomainStripe& RightsIssuer::stripe_for(
    std::string_view domain_id) const {
  return const_cast<RightsIssuer*>(this)->stripe_for(domain_id);
}

RightsIssuer::RightsIssuer(std::string ri_id, std::string url,
                           pki::CertificationAuthority& ca,
                           const pki::Validity& validity,
                           provider::CryptoProvider& crypto, Rng& rng,
                           pki::SubordinateAuthority* issuing_ca,
                           std::size_t key_bits)
    : ri_id_(std::move(ri_id)),
      url_(std::move(url)),
      ca_(ca),
      crypto_(crypto),
      rng_(rng),
      key_(rsa::generate_key(key_bits, rng)),
      device_chain_verifier_(ca.root_certificate(), crypto) {
  if (issuing_ca != nullptr) {
    cert_ = issuing_ca->issue(ri_id_, key_.public_key(), validity, rng_);
    intermediates_.push_back(issuing_ca->certificate());
  } else {
    cert_ = ca_.issue(ri_id_, key_.public_key(), validity, rng_);
  }
}

// ---------------------------------------------------------------------------
// Durable replay/registration state
// ---------------------------------------------------------------------------

namespace {

Bytes encode_pending(const Bytes& ri_nonce, const std::string& device_id,
                     std::uint64_t created_at) {
  Bytes out;
  append_be64(out, created_at);
  put_lv(out, ri_nonce);
  out.insert(out.end(), device_id.begin(), device_id.end());
  return out;
}

Bytes encode_domain(const Domain& d) {
  Bytes out;
  put_lv(out, d.key);
  append_be32(out, d.generation);
  append_be32(out, static_cast<std::uint32_t>(d.max_members));
  append_be32(out, static_cast<std::uint32_t>(d.members.size()));
  for (const std::string& m : d.members) {
    put_lv(out, to_bytes(m));
  }
  return out;
}

Bytes encode_meta(std::uint64_t session_lease) {
  Bytes out;
  append_be64(out, session_lease);
  return out;
}

}  // namespace

void RightsIssuer::persist(const store::Transaction& tx) {
  if (store_ == nullptr || tx.empty()) return;
  Result<> committed = store_->commit(tx);
  if (!committed.ok()) {
    throw Error(ErrorKind::kState,
                "ri: store refused commit: " + committed.describe());
  }
}

Result<> RightsIssuer::bind_store(store::StateStore& s) {
  Result<std::vector<store::Record>> loaded = s.load();
  if (!loaded.ok()) return Result<>(loaded.code(), loaded.context());

  bool has_meta = false;
  for (const store::Record& rec : *loaded) has_meta |= (rec.key == kMetaKey);

  if (has_meta) {
    // Restart path: the store image replaces this instance's replay
    // state. In-flight handshakes stay completable; consumed sessions
    // stay consumed. The decoded image is staged whole, then installed
    // into the shards/stripes — bind_store is config-time (no handler
    // traffic), so no shard locks are needed.
    std::map<std::string, PendingSession> sessions;
    std::map<std::string, pki::Certificate> devices;
    std::map<std::string, Domain> domains;
    std::uint64_t session_lease = 1;
    try {
      for (const store::Record& rec : *loaded) {
        const std::string_view key = rec.key;
        if (key == kMetaKey) {
          Reader r(ByteView(rec.value));
          session_lease = r.u64();
        } else if (key.starts_with("sess/")) {
          Reader r(ByteView(rec.value));
          PendingSession p;
          p.created_at = r.u64();
          ByteView nonce = r.lv();
          p.ri_nonce = Bytes(nonce.begin(), nonce.end());
          ByteView rest = ByteView(rec.value).subspan(r.pos());
          p.device_id = std::string(rest.begin(), rest.end());
          sessions[std::string(key.substr(5))] = std::move(p);
        } else if (key.starts_with("dev/")) {
          devices[std::string(key.substr(4))] =
              pki::Certificate::from_der(rec.value);
        } else if (key.starts_with("domain/")) {
          Reader r(ByteView(rec.value));
          Domain d;
          d.domain_id = std::string(key.substr(7));
          ByteView dk = r.lv();
          d.key = Bytes(dk.begin(), dk.end());
          d.generation = r.u32();
          d.max_members = r.u32();
          const std::uint32_t count = r.u32();
          for (std::uint32_t i = 0; i < count; ++i) {
            ByteView m = r.lv();
            d.members.push_back(std::string(m.begin(), m.end()));
          }
          domains[d.domain_id] = std::move(d);
        } else {
          throw Error(ErrorKind::kFormat,
                      "ri state: unknown record key '" + rec.key + "'");
        }
      }
    } catch (const Error& e) {
      return Result<>(StatusCode::kStoreCorrupt,
                      std::string("ri: store image malformed: ") + e.what());
    }
    for (Shard& sh : shards_) {
      sh.sessions.clear();
      sh.devices.clear();
      sh.oldest_session.store(kNoSessions, std::memory_order_relaxed);
    }
    for (DomainStripe& ds : domain_stripes_) ds.domains.clear();
    for (auto& [id, p] : sessions) {
      shard_for(p.device_id).sessions[id] = std::move(p);
    }
    for (auto& [id, cert] : devices) {
      shard_for(id).devices[id] = KnownDevice{std::move(cert), {}};
    }
    for (auto& [id, d] : domains) {
      stripe_for(id).domains[id] = std::move(d);
    }
    for (Shard& sh : shards_) refresh_oldest(sh);
    // The persisted lease bounds every id the previous process may have
    // handed out; resuming *at* the bound can never collide.
    next_session_.store(session_lease, std::memory_order_relaxed);
    {
      MutexLock lock(meta_mu_);
      session_lease_ = session_lease;
    }
    store_ = &s;
    return Result<>();
  }

  if (!loaded->empty()) {
    // Records but no meta: another entity's store (or a mangled image);
    // seeding would tx.clear() state that is not ours — fail closed.
    return Result<>(StatusCode::kStoreCorrupt,
                    "ri: store holds foreign records, refusing to seed");
  }
  // Empty store: seed it with the current state.
  store::Transaction tx;
  tx.clear();
  tx.put(kMetaKey, encode_meta(next_session_.load(std::memory_order_relaxed)));
  for (const Shard& sh : shards_) {
    for (const auto& [id, p] : sh.sessions) {
      tx.put(sess_record_key(id),
             encode_pending(p.ri_nonce, p.device_id, p.created_at));
    }
    for (const auto& [id, known] : sh.devices) {
      tx.put(dev_record_key(id), known.cert.to_der());
    }
  }
  for (const DomainStripe& ds : domain_stripes_) {
    for (const auto& [id, d] : ds.domains) {
      tx.put(domain_record_key(id), encode_domain(d));
    }
  }
  Result<> committed = s.commit(tx);
  if (!committed.ok()) return committed;
  {
    MutexLock lock(meta_mu_);
    session_lease_ = next_session_.load(std::memory_order_relaxed);
  }
  store_ = &s;
  return Result<>();
}

void RightsIssuer::add_offer(LicenseOffer offer) {
  if (offer.ro_id.empty() || offer.content_id.empty()) {
    throw Error(ErrorKind::kProtocol, "ri: offer needs ro_id + content_id");
  }
  if (offer.kcek.size() != 16) {
    throw Error(ErrorKind::kCrypto, "ri: K_CEK must be 16 bytes");
  }
  if (offer.domain_ro && offer.domain_id.empty()) {
    throw Error(ErrorKind::kProtocol, "ri: domain offer needs domain_id");
  }
  if (!offers_.emplace(offer.ro_id, std::move(offer)).second) {
    throw Error(ErrorKind::kProtocol, "ri: duplicate ro_id");
  }
}

bool RightsIssuer::has_offer(const std::string& ro_id) const {
  return offers_.count(ro_id) > 0;
}

void RightsIssuer::create_domain(const std::string& domain_id,
                                 std::size_t max_members) {
  DomainStripe& ds = stripe_for(domain_id);
  MutexLock lock(ds.mu);
  if (ds.domains.count(domain_id)) return;
  Domain d;
  d.domain_id = domain_id;
  d.key = rng_.bytes(16);
  d.generation = 1;
  d.max_members = max_members;
  store::Transaction tx;
  tx.put(domain_record_key(domain_id), encode_domain(d));
  persist(tx);
  ds.domains.emplace(domain_id, std::move(d));
}

const Domain* RightsIssuer::domain(const std::string& domain_id) const {
  const DomainStripe& ds = stripe_for(domain_id);
  MutexLock lock(ds.mu);
  auto it = ds.domains.find(domain_id);
  return it == ds.domains.end() ? nullptr : &it->second;
}

std::optional<Domain> RightsIssuer::domain_snapshot(
    const std::string& domain_id) const {
  const DomainStripe& ds = stripe_for(domain_id);
  MutexLock lock(ds.mu);
  auto it = ds.domains.find(domain_id);
  if (it == ds.domains.end()) return std::nullopt;
  return it->second;
}

void RightsIssuer::upgrade_domain(const std::string& domain_id) {
  DomainStripe& ds = stripe_for(domain_id);
  MutexLock lock(ds.mu);
  auto it = ds.domains.find(domain_id);
  if (it == ds.domains.end()) {
    throw Error(ErrorKind::kNotFound, "ri: no such domain: " + domain_id);
  }
  // Persist the re-keyed domain before the live state changes
  // (create_domain's order): a refused commit must not leave RAM at
  // generation N+1 while the store — and therefore the next restart —
  // resurrects the old (possibly compromised) key and membership.
  Domain upgraded = it->second;
  upgraded.key = rng_.bytes(16);
  ++upgraded.generation;
  // Every member must re-join to pick up the new generation's key.
  upgraded.members.clear();
  store::Transaction tx;
  tx.put(domain_record_key(upgraded.domain_id), encode_domain(upgraded));
  persist(tx);
  it->second = std::move(upgraded);
}

roap::RoAcquisitionTrigger RightsIssuer::make_trigger(
    const std::string& ro_id) const {
  auto it = offers_.find(ro_id);
  if (it == offers_.end()) {
    throw Error(ErrorKind::kNotFound, "ri: no such offer: " + ro_id);
  }
  roap::RoAcquisitionTrigger t;
  t.ri_id = ri_id_;
  t.ri_url = url_;
  t.ro_id = ro_id;
  t.content_id = it->second.content_id;
  t.domain_id = it->second.domain_ro ? it->second.domain_id : "";
  return t;
}

bool RightsIssuer::is_registered(const std::string& device_id) const {
  const Shard& sh = shards_[shard_of(device_id)];
  MutexLock lock(sh.mu);
  return sh.devices.count(device_id) > 0;
}

std::size_t RightsIssuer::pending_session_count() const {
  std::size_t total = 0;
  for (const Shard& sh : shards_) {
    MutexLock lock(sh.mu);
    total += sh.sessions.size();
  }
  return total;
}

std::vector<std::string> RightsIssuer::stale_sessions(
    const Shard& sh, std::uint64_t now,
    const std::string* superseded_device) const {
  std::vector<std::string> out;
  for (const auto& [id, p] : sh.sessions) {
    const bool expired =
        now >= p.created_at && now - p.created_at > kPendingSessionTtl;
    const bool superseded =
        superseded_device != nullptr && p.device_id == *superseded_device;
    if (expired || superseded) out.push_back(id);
  }
  return out;
}

void RightsIssuer::refresh_oldest(Shard& sh) {
  std::uint64_t oldest = kNoSessions;
  for (const auto& [id, p] : sh.sessions) {
    oldest = std::min(oldest, p.created_at);
  }
  sh.oldest_session.store(oldest, std::memory_order_relaxed);
}

std::size_t RightsIssuer::sweep_stale_shards(std::uint64_t now,
                                             const Shard* skip) {
  std::size_t total = 0;
  for (Shard& sh : shards_) {
    if (&sh == skip) continue;
    // Lock-free fast path: nothing old enough to die in this shard.
    const std::uint64_t oldest =
        sh.oldest_session.load(std::memory_order_relaxed);
    if (oldest == kNoSessions || now < oldest ||
        now - oldest <= kPendingSessionTtl) {
      continue;
    }
    MutexLock lock(sh.mu);
    const std::vector<std::string> doomed = stale_sessions(sh, now, nullptr);
    if (doomed.empty()) continue;
    store::Transaction tx;
    for (const std::string& id : doomed) tx.erase(sess_record_key(id));
    try {
      persist(tx);
    } catch (const Error& e) {
      if (e.kind() != ErrorKind::kState) throw;
      // Degraded store: leave the stale sessions for a later sweep
      // rather than failing the request that merely triggered the GC.
      continue;
    }
    for (const std::string& id : doomed) sh.sessions.erase(id);
    refresh_oldest(sh);
    total += doomed.size();
  }
  return total;
}

std::size_t RightsIssuer::expire_pending_sessions(std::uint64_t now) {
  return sweep_stale_shards(now, nullptr);
}

roap::RiHello RightsIssuer::on_device_hello(Shard& sh,
                                            const roap::DeviceHello& hello,
                                            std::uint64_t now) {
  // Garbage-collect this shard's abandoned handshakes, then supersede any
  // pending session of this same device: only its newest hello stays
  // live. (Other shards were swept in handle() before the shard lock was
  // taken.) DeviceHello is unauthenticated (nothing in pass 1 is signed,
  // per the protocol), so a peer spoofing another device's id can abort
  // that device's in-flight handshake — the deliberate tradeoff for
  // bounding per-device pending state to one entry; the aborted device
  // just restarts from DeviceHello. Real authentication lands in pass 3.
  const std::vector<std::string> doomed =
      stale_sessions(sh, now, &hello.device_id);

  // Session-id reservation is lock-free; the persisted lease bound in
  // "meta" is what a restart resumes from, re-extended (under meta_mu_,
  // inside this hello's transaction) only when the reservation crosses
  // the current bound — roughly one meta write per kSessionLeaseBlock
  // hellos instead of one per hello, and never a stale smaller bound
  // overwriting a larger one. A reservation burned by a refused commit
  // is simply skipped: ids need uniqueness, not density.
  const std::uint64_t session_number =
      next_session_.fetch_add(1, std::memory_order_relaxed);

  roap::RiHello out;
  out.ri_id = ri_id_;
  out.session_id = ri_id_ + "-session-" + std::to_string(session_number);
  // Capability negotiation: the standard's mandatory suite always wins
  // unless the device advertises nothing (paper §2.4.1).
  out.algorithms = {"SHA-1", "HMAC-SHA1", "AES-128-CBC", "AES-WRAP",
                    "RSA-1024", "RSA-PSS", "KDF2"};
  out.ri_nonce = rng_.bytes(roap::kNonceLen);

  // The pending nonce (and the lease that bounds session ids) must
  // survive an RI restart, or every in-flight handshake dies with the
  // process. Persist BEFORE touching RAM: a refused commit (degraded
  // mode) must leave no half-created session and no superseded-but-alive
  // entries.
  store::Transaction tx;
  for (const std::string& id : doomed) tx.erase(sess_record_key(id));
  tx.put(sess_record_key(out.session_id),
         encode_pending(out.ri_nonce, hello.device_id, now));
  {
    UniqueLock meta_lock(meta_mu_);
    if (session_number + 1 > session_lease_) {
      const std::uint64_t new_lease = session_number + kSessionLeaseBlock;
      tx.put(kMetaKey, encode_meta(new_lease));
      persist(tx);  // meta_mu_ held: lease extensions commit in order
      session_lease_ = new_lease;
    } else {
      meta_lock.unlock();
      persist(tx);
    }
  }

  for (const std::string& id : doomed) sh.sessions.erase(id);
  sh.sessions[out.session_id] =
      PendingSession{out.ri_nonce, hello.device_id, now};
  refresh_oldest(sh);
  return out;
}

roap::RegistrationResponse RightsIssuer::on_registration_request(
    Shard& sh, const roap::RegistrationRequest& request, std::uint64_t now) {
  roap::RegistrationResponse out;
  out.session_id = request.session_id;
  out.ri_id = ri_id_;
  out.ri_url = url_;

  // Shard-local TTL sweep staged up front; its RAM erases apply only
  // after the commit below succeeds (compute → persist → apply, like
  // every handler — a refused commit must leave RAM and store agreeing).
  std::vector<std::string> doomed = stale_sessions(sh, now, nullptr);
  const auto is_doomed = [&doomed](const std::string& id) {
    return std::find(doomed.begin(), doomed.end(), id) != doomed.end();
  };

  auto session = sh.sessions.find(request.session_id);
  if (session == sh.sessions.end() || is_doomed(session->first)) {
    // The pending session is gone — TTL garbage collection, supersession
    // by a newer hello, an RI restart racing this retry, or a request
    // whose device id does not match the hello's (a session lives in its
    // device's shard, so a cross-device forgery simply finds nothing
    // here). Not a refusal: an honest device did nothing wrong and must
    // simply restart from DeviceHello with fresh nonces. kSessionExpired
    // is that clean restart signal (kAbort stays reserved for genuine
    // refusals).
    store::Transaction tx;
    for (const std::string& id : doomed) tx.erase(sess_record_key(id));
    persist(tx);
    for (const std::string& id : doomed) sh.sessions.erase(id);
    refresh_oldest(sh);
    out.status = Status::kSessionExpired;
    return out;
  }
  if (!ct_equal(session->second.ri_nonce, request.ri_nonce)) {
    // A live session but the wrong nonce: a forgery or a cross-wired
    // handshake. Refused without consuming the session — the honest
    // device's in-flight request can still land.
    out.status = Status::kAbort;
    return out;
  }
  // The handshake is consumed one-shot: whatever the outcome below, a
  // retry must restart from DeviceHello with fresh nonces. (A *byte
  // identical* retry is instead served by the replay cache upstream and
  // never reaches this point while the entry lives.)
  doomed.push_back(session->first);

  // Verify the device certificate chain and the message signature — all
  // pure computation against the request; no state changes yet. A device
  // re-sending the certificate already on file is checked against the
  // stored one: no decode, and its key keeps the Montgomery context it
  // built before. Any other certificate is decoded afresh.
  Status verdict = Status::kSuccess;
  auto known = sh.devices.find(request.device_id);
  const bool reuse = known != sh.devices.end() &&
                     known->second.cert.to_der() == request.certificate_der;
  pki::Certificate decoded;
  if (!reuse) {
    try {
      decoded = pki::Certificate::from_der(request.certificate_der);
    } catch (const Error&) {
      verdict = Status::kAbort;
    }
  }
  const pki::Certificate& device_cert = reuse ? known->second.cert : decoded;
  pki::ChainVerdict walked;
  pki::ChainVerdict& chain_verdict = reuse ? known->second.verdict : walked;
  if (verdict == Status::kSuccess) {
    // A device re-sending its stored certificate revalidates the verdict
    // held beside it: zero RSA operations here while it holds. Any other
    // certificate is walked.
    if (!device_trusted(device_cert, chain_verdict, now)) {
      verdict = Status::kAbort;
    } else if (!crypto_.pss_verify(device_cert.subject_key(),
                                   request.payload(), request.signature)) {
      verdict = Status::kSignatureInvalid;
    }
  }
  // A revoked issuing intermediate must stop the service: the single
  // OCSP staple below covers only the RI leaf, so the devices cannot see
  // intermediate revocation themselves (multi-staple support is a
  // protocol extension this profile does not carry yet).
  if (verdict == Status::kSuccess) {
    for (const pki::Certificate& intermediate : intermediates_) {
      if (ca_.is_revoked(intermediate.serial())) {
        verdict = Status::kAbort;
        break;
      }
    }
  }

  // Session consumption (and device admission) is durable before the
  // response leaves: a replayed RegistrationRequest against a restarted
  // RI must still find its one-shot session consumed.
  store::Transaction tx;
  for (const std::string& id : doomed) tx.erase(sess_record_key(id));
  if (verdict == Status::kSuccess) {
    tx.put(dev_record_key(request.device_id), device_cert.to_der());
  }
  persist(tx);
  for (const std::string& id : doomed) sh.sessions.erase(id);
  refresh_oldest(sh);
  if (verdict != Status::kSuccess) {
    out.status = verdict;
    return out;
  }
  // Moved, not copied: the key keeps the Montgomery context the signature
  // check above built, for every later request from this device; the
  // verdict rides along for the next re-registration. A reused
  // certificate's verdict was revalidated in place.
  if (!reuse) {
    sh.devices[request.device_id] =
        KnownDevice{std::move(decoded), std::move(walked)};
  }
  counters_.registrations.fetch_add(1, std::memory_order_relaxed);

  // Staple a fresh OCSP response for our own certificate, bound to the
  // nonce the device supplied.
  const pki::OcspResponse ocsp =
      ca_.ocsp_respond(cert_.serial(), request.ocsp_nonce, now, rng_, crypto_);

  out.status = Status::kSuccess;
  out.ri_certificate_der = cert_.to_der();
  for (const pki::Certificate& intermediate : intermediates_) {
    out.ri_certificate_chain_der.push_back(intermediate.to_der());
  }
  out.ocsp_response_der = ocsp.to_der();
  out.signature = crypto_.pss_sign(key_, out.payload(), rng_);
  return out;
}

bool RightsIssuer::device_trusted(const pki::Certificate& cert,
                                  pki::ChainVerdict& verdict,
                                  std::uint64_t now) {
  const std::span<const pki::Certificate> chain(&cert, 1);
  if (device_chain_verifier_.revalidate(verdict, chain, now) !=
      pki::CertStatus::kValid) {
    return false;
  }
  if (ca_.is_revoked(cert.serial())) {
    device_chain_verifier_.invalidate_serial(cert.serial());
    return false;
  }
  return true;
}

roap::ProtectedRo RightsIssuer::build_protected_ro(
    const LicenseOffer& offer, const rsa::PublicKey& device_key,
    const Domain* domain_state) {
  roap::ProtectedRo ro;
  ro.rights.ro_id = offer.ro_id;
  ro.rights.content_id = offer.content_id;
  ro.rights.dcf_hash = offer.dcf_hash;
  ro.rights.permissions = offer.permissions;
  ro.ri_id = ri_id_;

  // Fresh rights keys per issued RO (Figure 3).
  Bytes kmac = rng_.bytes(16);
  Bytes krek = rng_.bytes(16);
  Bytes kmac_krek = concat({kmac, krek});

  // Two-layer chain: K_CEK under K_REK, K_MAC||K_REK under the transport.
  ro.enc_kcek = crypto_.aes_wrap(krek, offer.kcek);

  if (offer.domain_ro) {
    // `domain_state` is the caller's snapshot (copied under the stripe
    // lock): key + generation are read from one consistent instant even
    // while a concurrent upgrade_domain re-keys the live table.
    const Domain& d = *domain_state;
    ro.is_domain_ro = true;
    ro.domain_id = offer.domain_id;
    ro.domain_generation = d.generation;
    ro.wrapped_keys = crypto_.aes_wrap(d.key, kmac_krek);
  } else {
    rsa::KemEncapsulation enc = crypto_.kem_encapsulate(device_key, rng_);
    Bytes c2 = crypto_.aes_wrap(enc.kek, kmac_krek);
    ro.wrapped_keys = concat({enc.c1, c2});
  }

  ro.mac = crypto_.hmac_sha1(kmac, ro.mac_payload());

  // RI signature: mandatory for Domain ROs, optional for Device ROs.
  if (offer.domain_ro || sign_device_ros_) {
    ro.signature = crypto_.pss_sign(key_, ro.signed_payload(), rng_);
  }
  return ro;
}

roap::RoResponse RightsIssuer::on_ro_request(
    Shard& sh, const roap::RoRequest& request, std::uint64_t now) {
  roap::RoResponse out;
  out.device_id = request.device_id;
  out.ri_id = ri_id_;
  out.device_nonce = request.device_nonce;

  auto device = sh.devices.find(request.device_id);
  if (device == sh.devices.end()) {
    out.status = Status::kNotRegistered;
    return out;
  }
  if (!device_trusted(device->second.cert, device->second.verdict, now)) {
    out.status = Status::kAbort;
    return out;
  }
  if (!crypto_.pss_verify(device->second.cert.subject_key(), request.payload(),
                          request.signature)) {
    out.status = Status::kSignatureInvalid;
    return out;
  }
  auto offer = offers_.find(request.ro_id);
  if (offer == offers_.end()) {
    out.status = Status::kUnknownRoId;
    return out;
  }
  std::optional<Domain> dsnap;
  if (offer->second.domain_ro) {
    // Domain ROs are only handed to current members of the domain. The
    // snapshot (one copy under the stripe lock) is both the membership
    // check and the key/generation source for the RO below — one
    // consistent view even against a racing join/upgrade.
    dsnap = domain_snapshot(offer->second.domain_id);
    bool member = false;
    if (dsnap) {
      for (const auto& m : dsnap->members) member |= (m == request.device_id);
    }
    if (!member) {
      out.status = Status::kAccessDenied;
      return out;
    }
  }

  out.status = Status::kSuccess;
  out.ros.push_back(build_protected_ro(offer->second,
                                       device->second.cert.subject_key(),
                                       dsnap ? &*dsnap : nullptr));
  out.signature = crypto_.pss_sign(key_, out.payload(), rng_);
  counters_.ros_issued.fetch_add(1, std::memory_order_relaxed);
  return out;
}

roap::JoinDomainResponse RightsIssuer::on_join_domain(
    Shard& sh, const roap::JoinDomainRequest& request, std::uint64_t now) {
  roap::JoinDomainResponse out;
  out.domain_id = request.domain_id;
  out.device_nonce = request.device_nonce;

  auto device = sh.devices.find(request.device_id);
  if (device == sh.devices.end()) {
    out.status = Status::kNotRegistered;
    return out;
  }
  if (!device_trusted(device->second.cert, device->second.verdict, now)) {
    out.status = Status::kAbort;
    return out;
  }
  if (!crypto_.pss_verify(device->second.cert.subject_key(), request.payload(),
                          request.signature)) {
    out.status = Status::kSignatureInvalid;
    return out;
  }
  // Joins cross device shards, so membership lives in its own striped
  // table. The stripe lock is held across compute → persist → apply: two
  // concurrent joins to one domain serialize here, so neither's
  // membership write can swallow the other's (lock order: device shard →
  // domain stripe → store; never two stripes).
  Domain joined_snapshot;
  {
    DomainStripe& ds = stripe_for(request.domain_id);
    MutexLock stripe_lock(ds.mu);
    auto it = ds.domains.find(request.domain_id);
    if (it == ds.domains.end()) {
      out.status = Status::kAccessDenied;
      return out;
    }
    // Compute the post-join membership on a copy, persist it, and only
    // then let it replace the live domain: a refused commit (degraded
    // mode) must leave RAM still agreeing with the store.
    Domain joined = it->second;
    bool already_member = false;
    for (const auto& m : joined.members) {
      already_member |= (m == request.device_id);
    }
    if (!already_member) {
      if (joined.members.size() >= joined.max_members) {
        out.status = Status::kAccessDenied;
        return out;
      }
      joined.members.push_back(request.device_id);
    }
    // Persisted on EVERY successful join, not just first admission: if a
    // prior join's commit failed (the response never left), the retry
    // hits the already-member path — it must still make the membership
    // durable before K_D is handed out.
    store::Transaction tx;
    tx.put(domain_record_key(joined.domain_id), encode_domain(joined));
    persist(tx);
    it->second = std::move(joined);
    joined_snapshot = it->second;
  }
  counters_.domain_joins.fetch_add(1, std::memory_order_relaxed);

  out.status = Status::kSuccess;
  out.generation = joined_snapshot.generation;
  // Transport K_D to the device with the same RSA-KEM chain as RO keys
  // (RSA work deliberately outside the stripe lock).
  rsa::KemEncapsulation enc =
      crypto_.kem_encapsulate(device->second.cert.subject_key(), rng_);
  Bytes c2 = crypto_.aes_wrap(enc.kek, joined_snapshot.key);
  out.wrapped_domain_key = concat({enc.c1, c2});
  out.signature = crypto_.pss_sign(key_, out.payload(), rng_);
  return out;
}

roap::LeaveDomainResponse RightsIssuer::on_leave_domain(
    Shard& sh, const roap::LeaveDomainRequest& request, std::uint64_t now) {
  (void)now;
  roap::LeaveDomainResponse out;
  out.domain_id = request.domain_id;
  out.device_nonce = request.device_nonce;

  auto device = sh.devices.find(request.device_id);
  if (device == sh.devices.end()) {
    out.status = Status::kNotRegistered;
    return out;
  }
  if (!crypto_.pss_verify(device->second.cert.subject_key(), request.payload(),
                          request.signature)) {
    out.status = Status::kSignatureInvalid;
    return out;
  }
  {
    // Same stripe-lock-across-copy→persist→apply discipline as
    // on_join_domain.
    DomainStripe& ds = stripe_for(request.domain_id);
    MutexLock stripe_lock(ds.mu);
    auto it = ds.domains.find(request.domain_id);
    if (it == ds.domains.end()) {
      out.status = Status::kAccessDenied;
      return out;
    }
    Domain left = it->second;
    std::erase(left.members, request.device_id);
    // Persisted on EVERY successful leave (mirroring on_join_domain): if
    // a prior leave's commit failed (the response never left), the retry
    // finds nothing to erase — it must still make the removal durable
    // before success is signed, or an RI restart resurrects the departed
    // member.
    store::Transaction tx;
    tx.put(domain_record_key(left.domain_id), encode_domain(left));
    persist(tx);
    it->second = std::move(left);
  }
  counters_.domain_leaves.fetch_add(1, std::memory_order_relaxed);

  out.status = Status::kSuccess;
  out.signature = crypto_.pss_sign(key_, out.payload(), rng_);
  return out;
}

// ---------------------------------------------------------------------------
// Idempotent replay cache + degraded-mode dispatch
// ---------------------------------------------------------------------------

namespace {

/// Replay-cache keys: message-type prefix + requester identity + the
/// request's freshness token. The raw nonce bytes go straight into the
/// key (they never leave the process); the stored digest pins the entry
/// to the exact request bytes anyway, so even a colliding key can never
/// serve a wrong response — it just misses.
std::string replay_key(const char* prefix, const std::string& id,
                       const Bytes& nonce) {
  std::string key = prefix;
  key += id;
  key += '/';
  key.append(nonce.begin(), nonce.end());
  return key;
}

Bytes wire_digest(const std::string& wire) {
  return crypto::Sha1::hash(
      ByteView(reinterpret_cast<const std::uint8_t*>(wire.data()),
               wire.size()));
}

}  // namespace

void RightsIssuer::set_replay_cache_capacity(std::size_t n) {
  replay_capacity_.store(n, std::memory_order_relaxed);
  for (Shard& sh : shards_) {
    MutexLock lock(sh.mu);
    while (sh.replay.size() > n) {
      sh.replay.erase(sh.replay_lru.back());
      sh.replay_lru.pop_back();
      ++sh.replay_stats.evictions;
    }
  }
}

std::size_t RightsIssuer::replay_cache_size() const {
  std::size_t total = 0;
  for (const Shard& sh : shards_) {
    MutexLock lock(sh.mu);
    total += sh.replay.size();
  }
  return total;
}

ReplayCacheStats RightsIssuer::replay_cache_stats() const {
  ReplayCacheStats out;
  for (const Shard& sh : shards_) {
    MutexLock lock(sh.mu);
    out.hits += sh.replay_stats.hits;
    out.misses += sh.replay_stats.misses;
    out.insertions += sh.replay_stats.insertions;
    out.evictions += sh.replay_stats.evictions;
    out.expirations += sh.replay_stats.expirations;
    out.mismatches += sh.replay_stats.mismatches;
  }
  return out;
}

RiCounters RightsIssuer::counters() const {
  RiCounters out;
  out.registrations = counters_.registrations.load(std::memory_order_relaxed);
  out.ros_issued = counters_.ros_issued.load(std::memory_order_relaxed);
  out.domain_joins = counters_.domain_joins.load(std::memory_order_relaxed);
  out.domain_leaves = counters_.domain_leaves.load(std::memory_order_relaxed);
  out.degraded_refusals =
      counters_.degraded_refusals.load(std::memory_order_relaxed);
  return out;
}

std::vector<RightsIssuer::ShardStats> RightsIssuer::shard_stats() const {
  std::vector<ShardStats> out;
  out.reserve(kShardCount);
  for (const Shard& sh : shards_) {
    MutexLock lock(sh.mu);
    ShardStats s;
    s.exchanges = sh.exchanges;
    s.contended = sh.contended;
    s.replay_hits = sh.replay_stats.hits;
    s.replay_misses = sh.replay_stats.misses;
    out.push_back(s);
  }
  return out;
}

std::optional<roap::Envelope> RightsIssuer::replay_lookup(
    Shard& sh, const std::string& key, const std::string& request_wire,
    std::uint64_t now) {
  auto it = sh.replay.find(key);
  if (it == sh.replay.end()) {
    ++sh.replay_stats.misses;
    return std::nullopt;
  }
  ReplayEntry& entry = it->second;
  const std::uint64_t ttl = replay_ttl_.load(std::memory_order_relaxed);
  if (now >= entry.created_at && now - entry.created_at > ttl) {
    sh.replay_lru.erase(entry.lru_it);
    sh.replay.erase(it);
    ++sh.replay_stats.expirations;
    ++sh.replay_stats.misses;
    return std::nullopt;
  }
  if (entry.request_digest != wire_digest(request_wire)) {
    // Same key, different bytes — e.g. a nonce collision or a tampered
    // resend. Never serve the stale answer; process it fresh.
    ++sh.replay_stats.mismatches;
    ++sh.replay_stats.misses;
    return std::nullopt;
  }
  sh.replay_lru.splice(sh.replay_lru.begin(), sh.replay_lru, entry.lru_it);
  ++sh.replay_stats.hits;
  return roap::Envelope::from_wire(entry.response_wire);
}

void RightsIssuer::replay_insert(Shard& sh, const std::string& key,
                                 const std::string& request_wire,
                                 std::string response_wire,
                                 std::uint64_t now) {
  const std::size_t capacity =
      replay_capacity_.load(std::memory_order_relaxed);
  if (capacity == 0) return;
  auto it = sh.replay.find(key);
  if (it != sh.replay.end()) {
    // Key reuse with different bytes (the lookup above missed on digest):
    // the newer exchange supersedes the remembered one.
    it->second.request_digest = wire_digest(request_wire);
    it->second.response_wire = std::move(response_wire);
    it->second.created_at = now;
    sh.replay_lru.splice(sh.replay_lru.begin(), sh.replay_lru,
                         it->second.lru_it);
    return;
  }
  while (sh.replay.size() >= capacity) {
    sh.replay.erase(sh.replay_lru.back());
    sh.replay_lru.pop_back();
    ++sh.replay_stats.evictions;
  }
  sh.replay_lru.push_front(key);
  ReplayEntry entry;
  entry.request_digest = wire_digest(request_wire);
  entry.response_wire = std::move(response_wire);
  entry.created_at = now;
  entry.lru_it = sh.replay_lru.begin();
  sh.replay.emplace(key, std::move(entry));
  ++sh.replay_stats.insertions;
}

template <typename Handler, typename Refusal>
roap::Envelope RightsIssuer::serve(Shard& sh, const std::string& key,
                                   const roap::Envelope& request,
                                   std::uint64_t now, Handler&& handler,
                                   Refusal&& refusal) {
  // The shard lock spans lookup → handler → insert: a duplicate racing
  // its original on another worker parks here, then hits the cache — one
  // issuance, one byte-identical cached reply, by construction.
  // try_lock-then-lock keeps the contended counter exact; the adopting
  // scoped guard then owns the release (the annotated equivalent of the
  // old unique_lock try_to_lock dance).
  bool was_contended = false;
  if (!sh.mu.try_lock()) {
    sh.mu.lock();
    was_contended = true;
  }
  MutexLock lock(sh.mu, std::adopt_lock);
  if (was_contended) ++sh.contended;
  ++sh.exchanges;
  if (std::optional<roap::Envelope> cached =
          replay_lookup(sh, key, request.wire(), now)) {
    // Duplicate of a recently served request: the response goes back
    // byte-for-byte with zero RSA operations and zero state changes.
    return *std::move(cached);
  }
  roap::Envelope response;
  try {
    response = handler();
  } catch (const Error& e) {
    if (e.kind() != ErrorKind::kState) throw;
    // Degraded mode: the durable store refused the commit this request
    // needed. Every handler persists before touching RAM, so nothing
    // changed — answer with a typed retriable refusal instead of
    // unwinding through the transport. Deliberately not cached: a retry
    // after the store heals must be re-processed, not re-refused.
    counters_.degraded_refusals.fetch_add(1, std::memory_order_relaxed);
    return refusal();
  }
  replay_insert(sh, key, request.wire(), response.wire(), now);
  return response;
}

roap::Envelope RightsIssuer::handle(const roap::Envelope& request,
                                    std::uint64_t now) {
  using roap::Envelope;
  using roap::MessageType;
  switch (request.type()) {
    case MessageType::kDeviceHello: {
      const auto msg = request.open<roap::DeviceHello>();
      Shard& sh = shard_for(msg.device_id);
      // Cross-shard TTL GC before this shard's lock is taken (lock order:
      // one shard at a time, never two). The target shard's own sweep
      // happens inside the handler, staged with its transaction.
      sweep_stale_shards(now, &sh);
      return serve(
          sh, replay_key("dh/", msg.device_id, msg.device_nonce), request,
          now, [&] {
            sh.mu.assert_held();  // serve() holds it; TSA can't see through the seam
            return Envelope::wrap(on_device_hello(sh, msg, now));
          },
          [&] {
            roap::RiHello out;
            out.status = Status::kStoreFailure;
            out.ri_id = ri_id_;
            return Envelope::wrap(out);
          });
    }
    case MessageType::kRegistrationRequest: {
      const auto msg = request.open<roap::RegistrationRequest>();
      Shard& sh = shard_for(msg.device_id);
      sweep_stale_shards(now, &sh);
      return serve(
          sh, replay_key("rr/", msg.session_id, msg.device_nonce), request,
          now,
          [&] {
            sh.mu.assert_held();
            return Envelope::wrap(on_registration_request(sh, msg, now));
          },
          [&] {
            roap::RegistrationResponse out;
            out.status = Status::kStoreFailure;
            out.session_id = msg.session_id;
            out.ri_id = ri_id_;
            out.ri_url = url_;
            return Envelope::wrap(out);
          });
    }
    case MessageType::kRoRequest: {
      const auto msg = request.open<roap::RoRequest>();
      Shard& sh = shard_for(msg.device_id);
      return serve(
          sh, replay_key("ro/", msg.device_id, msg.device_nonce), request,
          now, [&] {
            sh.mu.assert_held();  // serve() holds it; TSA can't see through the seam
            return Envelope::wrap(on_ro_request(sh, msg, now));
          },
          [&] {
            // RO issuing persists nothing, but keep the refusal builder:
            // future stateful extensions (metered ROs) land here safely.
            roap::RoResponse out;
            out.status = Status::kStoreFailure;
            out.device_id = msg.device_id;
            out.ri_id = ri_id_;
            out.device_nonce = msg.device_nonce;
            return Envelope::wrap(out);
          });
    }
    case MessageType::kJoinDomainRequest: {
      const auto msg = request.open<roap::JoinDomainRequest>();
      Shard& sh = shard_for(msg.device_id);
      return serve(
          sh, replay_key("jd/", msg.device_id, msg.device_nonce), request,
          now, [&] {
            sh.mu.assert_held();  // serve() holds it; TSA can't see through the seam
            return Envelope::wrap(on_join_domain(sh, msg, now));
          },
          [&] {
            roap::JoinDomainResponse out;
            out.status = Status::kStoreFailure;
            out.domain_id = msg.domain_id;
            out.device_nonce = msg.device_nonce;
            return Envelope::wrap(out);
          });
    }
    case MessageType::kLeaveDomainRequest: {
      const auto msg = request.open<roap::LeaveDomainRequest>();
      Shard& sh = shard_for(msg.device_id);
      return serve(
          sh, replay_key("ld/", msg.device_id, msg.device_nonce), request,
          now, [&] {
            sh.mu.assert_held();  // serve() holds it; TSA can't see through the seam
            return Envelope::wrap(on_leave_domain(sh, msg, now));
          },
          [&] {
            roap::LeaveDomainResponse out;
            out.status = Status::kStoreFailure;
            out.domain_id = msg.domain_id;
            out.device_nonce = msg.device_nonce;
            return Envelope::wrap(out);
          });
    }
    default:
      throw Error(ErrorKind::kProtocol,
                  std::string("ri: ") + roap::to_string(request.type()) +
                      " is not a request message");
  }
}

}  // namespace omadrm::ri
