#include "ri/rights_issuer.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <type_traits>

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

Bytes encode_pending(const PendingSession& p) {
  Bytes out;
  append_be64(out, p.created_at);
  put_lv(out, p.ri_nonce);
  out.insert(out.end(), p.device_id.begin(), p.device_id.end());
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

void RightsIssuer::commit(const store::Transaction& tx) {
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
      tx.put(sess_record_key(id), encode_pending(p));
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
  commit(tx);
  ds.domains.emplace(domain_id, std::move(d));
}

const Domain* RightsIssuer::domain(const std::string& domain_id) const {
  const DomainStripe& ds = stripe_for(domain_id);
  MutexLock lock(ds.mu);
  auto it = ds.domains.find(domain_id);
  return it == ds.domains.end() ? nullptr : &it->second;
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
  commit(tx);
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
    Delta sweep;
    sweep.erased_sessions = stale_sessions(sh.sessions, now, nullptr);
    if (sweep.erased_sessions.empty()) continue;
    try {
      persist(sh, sweep);
    } catch (const Error& e) {
      if (e.kind() != ErrorKind::kState) throw;
      // Degraded store: leave the stale sessions for a later sweep
      // rather than failing the request that merely triggered the GC.
      continue;
    }
    total += sweep.erased_sessions.size();
  }
  return total;
}

std::size_t RightsIssuer::expire_pending_sessions(std::uint64_t now) {
  return sweep_stale_shards(now, nullptr);
}

Bytes RightsIssuer::kem_wrap(const rsa::PublicKey& key, const Bytes& secret) {
  rsa::KemEncapsulation enc = crypto_.kem_encapsulate(key, rng_);
  return concat({enc.c1, crypto_.aes_wrap(enc.kek, secret)});
}

// ---------------------------------------------------------------------------
// The exchange pipeline: authenticate → decide → persist → seal
// ---------------------------------------------------------------------------

template <typename Msg>
roap::Envelope RightsIssuer::exchange(Shard& sh, const Msg& msg,
                                      std::uint64_t now) {
  constexpr bool kHello = std::is_same_v<Msg, roap::DeviceHello>;
  constexpr bool kMembership = std::is_same_v<Msg, roap::JoinDomainRequest> ||
                               std::is_same_v<Msg, roap::LeaveDomainRequest>;
  View view{.ri_id = ri_id_, .ri_url = url_, .now = now,
            .sessions = &sh.sessions};

  // authenticate, or for a DeviceHello (nothing in pass 1 is signed) draw
  // the session number and RI nonce decide needs. Session ids are
  // reserved lock-free; persist extends the lease that bounds them.
  KnownDevice presented;
  KnownDevice* signer = nullptr;
  if constexpr (kHello) {
    view.session_number = next_session_.fetch_add(1, std::memory_order_relaxed);
    view.nonce = rng_.bytes(roap::kNonceLen);
  } else if constexpr (std::is_same_v<Msg, roap::RegistrationRequest>) {
    // The cheap session and nonce checks come before any RSA work.
    if (session_check(sh.sessions, msg, now) == Status::kSuccess) {
      view.auth = authenticate(sh, msg, now, presented, signer);
    }
  } else {
    view.auth = authenticate(sh, msg, now, presented, signer);
  }
  view.device = signer;

  std::optional<Domain> snapshot;
  std::optional<MutexLock> stripe_lock;
  if constexpr (std::is_same_v<Msg, roap::RoRequest>) {
    auto offer = offers_.find(msg.ro_id);
    if (offer != offers_.end()) view.offer = &offer->second;
    if (view.auth == Status::kSuccess && view.offer && view.offer->domain_ro) {
      // One copy under the stripe lock is both the membership check and
      // the key and generation the RO is built with, consistent even
      // against a racing join or upgrade.
      const DomainStripe& ds = stripe_for(view.offer->domain_id);
      MutexLock lock(ds.mu);
      auto live = ds.domains.find(view.offer->domain_id);
      if (live != ds.domains.end()) {
        view.domain = &snapshot.emplace(live->second);
      }
    }
  } else if constexpr (kMembership) {
    // Joins and leaves cross device shards, so membership lives in its
    // own striped table. The stripe lock spans decide → persist → apply:
    // two membership changes to one domain serialize here, so neither's
    // write swallows the other's. The RSA work of seal stays outside it.
    if (view.auth == Status::kSuccess) {
      DomainStripe& ds = stripe_for(msg.domain_id);
      stripe_lock.emplace(ds.mu);
      ds.mu.assert_held();
      auto live = ds.domains.find(msg.domain_id);
      if (live != ds.domains.end()) view.domain = &live->second;
    }
  }

  auto [out, delta] = decide(msg, view);
  persist(sh, delta);
  stripe_lock.reset();

  if constexpr (!kHello) {
    if (out.status == Status::kSuccess) {
      seal(out, msg, view, delta, now);
      if constexpr (std::is_same_v<Msg, roap::RegistrationRequest>) {
        counters_.registrations.fetch_add(1, std::memory_order_relaxed);
      } else if constexpr (std::is_same_v<Msg, roap::RoRequest>) {
        counters_.ros_issued.fetch_add(1, std::memory_order_relaxed);
      } else if constexpr (std::is_same_v<Msg, roap::JoinDomainRequest>) {
        counters_.domain_joins.fetch_add(1, std::memory_order_relaxed);
      } else {
        counters_.domain_leaves.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  return roap::Envelope::wrap(out);
}

template <typename Msg>
Status RightsIssuer::authenticate(Shard& sh, const Msg& request,
                                  std::uint64_t now, KnownDevice& presented,
                                  KnownDevice*& signer) {
  constexpr bool kRegistration =
      std::is_same_v<Msg, roap::RegistrationRequest>;
  auto known = sh.devices.find(request.device_id);
  signer = known == sh.devices.end() ? nullptr : &known->second;
  if constexpr (kRegistration) {
    // A device re-sending the certificate on file is checked against it:
    // no decode, its key keeps its Montgomery context, and its held
    // verdict revalidates with no RSA work. Any other certificate is
    // decoded and walked.
    if (signer == nullptr || signer->cert.to_der() != request.certificate_der) {
      try {
        presented.cert = pki::Certificate::from_der(request.certificate_der);
      } catch (const Error&) {
        return Status::kAbort;
      }
      signer = &presented;
    }
  } else if (signer == nullptr) {
    return Status::kNotRegistered;
  }
  // A revoked device may still leave a domain: membership only shrinks.
  if constexpr (!std::is_same_v<Msg, roap::LeaveDomainRequest>) {
    const std::span<const pki::Certificate> chain(&signer->cert, 1);
    if (device_chain_verifier_.revalidate(signer->verdict, chain, now) !=
        pki::CertStatus::kValid) {
      return Status::kAbort;
    }
    // A revocation the CA reports goes on the verifier's denylist, so the
    // held verdict itself stops vouching.
    if (ca_.is_revoked(signer->cert.serial())) {
      device_chain_verifier_.invalidate_serial(signer->cert.serial());
      return Status::kAbort;
    }
  }
  if (!crypto_.pss_verify(signer->cert.subject_key(), request.payload(),
                          request.signature)) {
    return Status::kSignatureInvalid;
  }
  if constexpr (kRegistration) {
    // A revoked issuing intermediate must stop the service: the single
    // OCSP staple covers only the RI leaf, so the devices cannot see
    // intermediate revocation themselves (multi-staple support is a
    // protocol extension this profile does not carry yet).
    for (const pki::Certificate& intermediate : intermediates_) {
      if (ca_.is_revoked(intermediate.serial())) return Status::kAbort;
    }
  }
  return Status::kSuccess;
}

void RightsIssuer::persist(Shard& sh, Delta& delta) {
  store::Transaction tx;
  for (const std::string& id : delta.erased_sessions) {
    tx.erase(sess_record_key(id));
  }
  if (delta.opened_session) {
    tx.put(sess_record_key(delta.opened_session->first),
           encode_pending(delta.opened_session->second));
  }
  if (delta.admitted) {
    tx.put(dev_record_key(delta.admitted->first),
           delta.admitted->second.cert.to_der());
  }
  if (delta.domain) {
    tx.put(domain_record_key(delta.domain->domain_id),
           encode_domain(*delta.domain));
  }
  if (delta.session_number == 0) {
    commit(tx);
  } else {
    // "meta" persists the bound session ids may reach, so a restart
    // resumes past every id handed out. It is re-extended, inside this
    // transaction, only when a reservation crosses it: one meta write per
    // kSessionLeaseBlock hellos, never a stale smaller bound overwriting
    // a larger one. An id burned by a refused commit is simply skipped.
    UniqueLock meta_lock(meta_mu_);
    if (delta.session_number + 1 > session_lease_) {
      const std::uint64_t new_lease = delta.session_number + kSessionLeaseBlock;
      tx.put(kMetaKey, encode_meta(new_lease));
      commit(tx);  // meta_mu_ held: lease extensions commit in order
      session_lease_ = new_lease;
    } else {
      meta_lock.unlock();
      commit(tx);
    }
  }

  // The commit held: apply the same change to RAM.
  for (const std::string& id : delta.erased_sessions) sh.sessions.erase(id);
  if (delta.opened_session) {
    sh.sessions.insert_or_assign(delta.opened_session->first,
                                 std::move(delta.opened_session->second));
  }
  if (!delta.erased_sessions.empty() || delta.opened_session) {
    refresh_oldest(sh);
  }
  if (delta.admitted) {
    // Copies of a key share its form, so the entry keeps the Montgomery
    // context the signature check built for every later request.
    sh.devices.insert_or_assign(delta.admitted->first,
                                std::move(delta.admitted->second));
  }
  if (delta.domain) {
    DomainStripe& ds = stripe_for(delta.domain->domain_id);
    ds.mu.assert_held();
    ds.domains.insert_or_assign(delta.domain->domain_id, *delta.domain);
  }
}

template <typename Msg, typename Response>
void RightsIssuer::seal(Response& out, const Msg& msg, const View& view,
                        const Delta& delta, std::uint64_t now) {
  if constexpr (std::is_same_v<Msg, roap::RegistrationRequest>) {
    out.ri_certificate_der = cert_.to_der();
    for (const pki::Certificate& intermediate : intermediates_) {
      out.ri_certificate_chain_der.push_back(intermediate.to_der());
    }
    // Staple a fresh OCSP response for our own certificate, bound to the
    // nonce the device supplied.
    out.ocsp_response_der =
        ca_.ocsp_respond(cert_.serial(), msg.ocsp_nonce, now, rng_, crypto_)
            .to_der();
  } else if constexpr (std::is_same_v<Msg, roap::RoRequest>) {
    const LicenseOffer& offer = *view.offer;
    roap::ProtectedRo& ro = out.ros.emplace_back();
    ro.rights.ro_id = offer.ro_id;
    ro.rights.content_id = offer.content_id;
    ro.rights.dcf_hash = offer.dcf_hash;
    ro.rights.permissions = offer.permissions;
    ro.ri_id = ri_id_;
    // Fresh rights keys per issued RO (Figure 3), in a two-layer chain:
    // K_CEK under K_REK, K_MAC||K_REK under the transport.
    Bytes kmac = rng_.bytes(16);
    Bytes krek = rng_.bytes(16);
    Bytes kmac_krek = concat({kmac, krek});
    ro.enc_kcek = crypto_.aes_wrap(krek, offer.kcek);
    if (offer.domain_ro) {
      // view.domain is the snapshot copied under the stripe lock: key and
      // generation come from one instant even while a concurrent
      // upgrade_domain re-keys the live table.
      ro.is_domain_ro = true;
      ro.domain_id = offer.domain_id;
      ro.domain_generation = view.domain->generation;
      ro.wrapped_keys = crypto_.aes_wrap(view.domain->key, kmac_krek);
    } else {
      ro.wrapped_keys = kem_wrap(view.device->cert.subject_key(), kmac_krek);
    }
    ro.mac = crypto_.hmac_sha1(kmac, ro.mac_payload());
    // RI signature: mandatory for Domain ROs, optional for Device ROs.
    if (offer.domain_ro || sign_device_ros_) {
      ro.signature = crypto_.pss_sign(key_, ro.signed_payload(), rng_);
    }
  } else if constexpr (std::is_same_v<Msg, roap::JoinDomainRequest>) {
    // K_D travels to the device by the same RSA-KEM chain as RO keys.
    out.wrapped_domain_key =
        kem_wrap(view.device->cert.subject_key(), delta.domain->key);
  }
  out.signature = crypto_.pss_sign(key_, out.payload(), rng_);
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

template <typename Msg>
roap::Envelope RightsIssuer::serve(const Msg& msg, const char* replay_prefix,
                                   const roap::Envelope& request,
                                   std::uint64_t now) {
  constexpr bool kRegistration =
      std::is_same_v<Msg, roap::RegistrationRequest>;
  const std::string* requester = &msg.device_id;
  if constexpr (kRegistration) requester = &msg.session_id;
  const std::string key =
      replay_key(replay_prefix, *requester, msg.device_nonce);
  Shard& sh = shard_for(msg.device_id);
  if constexpr (kRegistration || std::is_same_v<Msg, roap::DeviceHello>) {
    // Cross-shard TTL GC before this shard's lock is taken (one shard at a
    // time, never two). This shard's own sweep rides in the exchange.
    sweep_stale_shards(now, &sh);
  }
  // The shard lock spans lookup → exchange → insert: a duplicate racing
  // its original on another worker parks here, then hits the cache — one
  // issuance, one byte-identical cached reply, by construction.
  // try_lock-then-lock keeps the contended counter exact; the adopting
  // scoped guard then owns the release.
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
    response = exchange(sh, msg, now);
  } catch (const Error& e) {
    if (e.kind() != ErrorKind::kState) throw;
    // Degraded mode: the durable store refused the commit this request
    // needed. persist commits before it touches RAM, so nothing changed —
    // answer with a typed retriable refusal instead of unwinding through
    // the transport. Deliberately not cached: a retry after the store
    // heals must be re-processed, not re-refused.
    counters_.degraded_refusals.fetch_add(1, std::memory_order_relaxed);
    auto refusal = header(msg, View{.ri_id = ri_id_, .ri_url = url_});
    refusal.status = Status::kStoreFailure;
    return roap::Envelope::wrap(refusal);
  }
  replay_insert(sh, key, request.wire(), response.wire(), now);
  return response;
}

roap::Envelope RightsIssuer::handle(const roap::Envelope& request,
                                    std::uint64_t now) {
  using roap::MessageType;
  switch (request.type()) {
    case MessageType::kDeviceHello:
      return serve(request.open<roap::DeviceHello>(), "dh/", request, now);
    case MessageType::kRegistrationRequest:
      return serve(request.open<roap::RegistrationRequest>(), "rr/", request,
                   now);
    case MessageType::kRoRequest:
      return serve(request.open<roap::RoRequest>(), "ro/", request, now);
    case MessageType::kJoinDomainRequest:
      return serve(request.open<roap::JoinDomainRequest>(), "jd/", request,
                   now);
    case MessageType::kLeaveDomainRequest:
      return serve(request.open<roap::LeaveDomainRequest>(), "ld/", request,
                   now);
    default:
      throw Error(ErrorKind::kProtocol,
                  std::string("ri: ") + roap::to_string(request.type()) +
                      " is not a request message");
  }
}

}  // namespace omadrm::ri
