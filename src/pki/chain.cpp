#include "pki/chain.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/hex.h"
#include "crypto/sha1.h"
#include "provider/provider.h"
#include "rsa/pss.h"

namespace omadrm::pki {

using omadrm::Error;
using omadrm::ErrorKind;

ChainVerifier::ChainVerifier(Certificate trust_root, VerifyFn verify)
    : trust_root_(std::move(trust_root)), verify_fn_(std::move(verify)) {
  if (!verify_fn_) {
    verify_fn_ = [](const rsa::PublicKey& key, ByteView message,
                    ByteView signature) {
      return rsa::pss_verify(key, message, signature);
    };
  }
  // One-time anchor self-consistency check (what validate_against_root
  // performed per call). Deliberately unmetered: a terminal validates its
  // baked-in root at boot, not per ROAP message.
  root_self_ok_ = rsa::pss_verify(trust_root_.subject_key(),
                                  trust_root_.tbs_der(),
                                  trust_root_.signature());
}

std::string ChainVerifier::fingerprint(std::span<const Certificate> chain,
                                       const Certificate& trust_root) {
  crypto::Sha1 h;
  auto absorb = [&h](const Bytes& der) {
    std::uint8_t len[4];
    store_be32(static_cast<std::uint32_t>(der.size()), len);
    h.update(ByteView(len, 4));
    h.update(der);
  };
  for (const Certificate& cert : chain) absorb(cert.to_der());
  absorb(trust_root.to_der());
  return to_hex(h.finish());
}

ChainVerifier::VerifyFn ChainVerifier::metered_verify(
    provider::CryptoProvider& provider) {
  return [provider = &provider](const rsa::PublicKey& key, ByteView message,
                                ByteView signature) {
    return provider->pss_verify(key, message, signature);
  };
}

std::shared_ptr<ChainVerdict> ChainVerifier::verify_full(
    std::span<const Certificate> chain, std::uint64_t now,
    std::string fp) const {
  auto verdict = std::make_shared<ChainVerdict>();
  verdict->fingerprint = std::move(fp);
  verdict->leaf_subject_cn = chain.front().subject_cn();
  // The verdict window is the intersection of every link's validity,
  // trust anchor included — an expired root must not keep vouching.
  verdict->valid_from = trust_root_.validity().not_before;
  verdict->valid_until = trust_root_.validity().not_after;
  verdict->status = CertStatus::kValid;

  if (!root_self_ok_) {
    verdict->status = CertStatus::kBadSignature;
    return verdict;
  }
  if (now < trust_root_.validity().not_before) {
    verdict->status = CertStatus::kNotYetValid;
    return verdict;
  }
  if (now > trust_root_.validity().not_after) {
    verdict->status = CertStatus::kExpired;
    return verdict;
  }

  for (std::size_t i = 0; i < chain.size(); ++i) {
    const Certificate& cert = chain[i];
    const Certificate& issuer = i + 1 < chain.size() ? chain[i + 1]
                                                     : trust_root_;
    verdict->serials.push_back(cert.serial());
    verdict->valid_from =
        std::max(verdict->valid_from, cert.validity().not_before);
    verdict->valid_until =
        std::min(verdict->valid_until, cert.validity().not_after);

    if (cert.issuer_cn() != issuer.subject_cn()) {
      verdict->status = CertStatus::kIssuerMismatch;
      return verdict;
    }
    // Only CA-marked certificates may vouch for others: without this an
    // arbitrary end-entity certificate (e.g. another device's) could be
    // inserted as a chain link and mint rogue issuers.
    if (i + 1 < chain.size() && !chain[i + 1].is_ca()) {
      verdict->status = CertStatus::kIssuerMismatch;
      return verdict;
    }
    if (now < cert.validity().not_before) {
      verdict->status = CertStatus::kNotYetValid;
      return verdict;
    }
    if (now > cert.validity().not_after) {
      verdict->status = CertStatus::kExpired;
      return verdict;
    }
    if (!verify_fn_(issuer.subject_key(), cert.tbs_der(),
                    cert.signature())) {
      verdict->status = CertStatus::kBadSignature;
      return verdict;
    }
  }
  return verdict;
}

std::shared_ptr<const ChainVerdict> ChainVerifier::verify(
    std::span<const Certificate> chain, std::uint64_t now) {
  if (chain.empty()) {
    throw Error(ErrorKind::kProtocol, "chain verifier: empty chain");
  }
  State& st = *state_;
  std::string fp = fingerprint(chain, trust_root_);

  // Reader-biased fast path: denylist check + cache hit take only the
  // shared lock, so concurrent hits (the steady state — every repeat
  // device) never serialize. Everything that mutates the map runs under
  // the writer lock below.
  std::uint64_t epoch_observed;
  bool stale_entry = false;
  {
    ReaderLock lock(st.mu);
    epoch_observed = st.epoch.load(std::memory_order_relaxed);
    // Durable revocation: a denylisted serial anywhere in the chain
    // short-circuits before any RSA work, and the verdict is never
    // cached (the denylist itself is the persistent record).
    for (const Certificate& cert : chain) {
      if (st.revoked_serials.contains(cert.serial())) {
        auto revoked = std::make_shared<ChainVerdict>();
        revoked->status = CertStatus::kRevoked;
        revoked->fingerprint = std::move(fp);
        revoked->leaf_subject_cn = chain.front().subject_cn();
        for (const Certificate& c : chain) {
          revoked->serials.push_back(c.serial());
        }
        // Not a miss: no verification runs (misses count full walks).
        return revoked;
      }
    }
    if (st.enabled.load(std::memory_order_relaxed)) {
      auto it = st.cache.find(fp);
      if (it != st.cache.end()) {
        if (now >= it->second->valid_from && now <= it->second->valid_until) {
          st.hits.fetch_add(1, std::memory_order_relaxed);
          // A surviving entry has outlived any invalidation that bumped
          // the epoch — re-stamp it so handle-based revalidation works
          // again for its holders. (Writers are excluded by our shared
          // lock, so epoch_observed is still the current epoch.)
          it->second->epoch.store(epoch_observed, std::memory_order_relaxed);
          return it->second;
        }
        // The chain aged out of (or has not yet entered) its window; the
        // stale verdict must not shadow the fresh, failing verification.
        stale_entry = true;
      }
    }
  }
  if (stale_entry) {
    WriterLock lock(st.mu);
    auto it = st.cache.find(fp);
    if (it != st.cache.end() &&
        !(now >= it->second->valid_from && now <= it->second->valid_until)) {
      std::erase(st.insertion_order, it->first);
      st.cache.erase(it);
      st.invalidations.fetch_add(1, std::memory_order_relaxed);
    }
  }
  st.misses.fetch_add(1, std::memory_order_relaxed);

  // Full walk outside the lock: the RSA work is the expensive part and may
  // go through a caller-provided (metered) primitive.
  std::shared_ptr<ChainVerdict> verdict = verify_full(chain, now, fp);

  if (verdict->status == CertStatus::kValid) {
    WriterLock lock(st.mu);
    // An invalidation that raced the (unlocked) walk must win: caching a
    // verdict computed before the epoch moved could resurrect a chain
    // that was just revoked.
    if (st.enabled.load(std::memory_order_relaxed) &&
        st.epoch.load(std::memory_order_relaxed) == epoch_observed) {
      verdict->epoch.store(epoch_observed, std::memory_order_relaxed);
      if (st.cache.emplace(verdict->fingerprint, verdict).second) {
        st.insertion_order.push_back(verdict->fingerprint);
      }
      // FIFO bound. The queue mirrors the map exactly (every erase also
      // purges its queue entry), so the front really is the oldest.
      while (st.cache.size() > kCacheCapacity && !st.insertion_order.empty()) {
        st.cache.erase(st.insertion_order.front());
        st.insertion_order.pop_front();
      }
    }
  }
  return verdict;
}

std::shared_ptr<const ChainVerdict> ChainVerifier::revalidate(
    const std::shared_ptr<const ChainVerdict>& handle,
    std::span<const Certificate> chain, std::uint64_t now) {
  State& st = *state_;
  if (handle && handle->status == CertStatus::kValid &&
      now >= handle->valid_from && now <= handle->valid_until) {
    ReaderLock lock(st.mu);
    if (st.enabled.load(std::memory_order_relaxed) &&
        handle->epoch.load(std::memory_order_relaxed) ==
            st.epoch.load(std::memory_order_relaxed)) {
      st.hits.fetch_add(1, std::memory_order_relaxed);
      return handle;
    }
  }
  return verify(chain, now);
}

void ChainVerifier::invalidate_serial(const Serial& serial) {
  State& st = *state_;
  WriterLock lock(st.mu);
  st.revoked_serials.insert(serial);
  for (auto it = st.cache.begin(); it != st.cache.end();) {
    const auto& serials = it->second->serials;
    if (std::find(serials.begin(), serials.end(), serial) != serials.end()) {
      std::erase(st.insertion_order, it->first);
      it = st.cache.erase(it);
      st.invalidations.fetch_add(1, std::memory_order_relaxed);
    } else {
      ++it;
    }
  }
  // Unconditional: also fences any walk currently in flight (it will see
  // the moved epoch and decline to cache its pre-revocation verdict) and
  // retires outstanding handles.
  st.epoch.fetch_add(1, std::memory_order_relaxed);
}

void ChainVerifier::clear() {
  State& st = *state_;
  WriterLock lock(st.mu);
  st.cache.clear();
  st.insertion_order.clear();
  st.epoch.fetch_add(1, std::memory_order_relaxed);
}

void ChainVerifier::set_enabled(bool enabled) {
  State& st = *state_;
  WriterLock lock(st.mu);
  st.enabled.store(enabled, std::memory_order_relaxed);
  if (!enabled) {
    st.cache.clear();
    st.insertion_order.clear();
    st.epoch.fetch_add(1, std::memory_order_relaxed);
  }
}

bool ChainVerifier::enabled() const {
  return state_->enabled.load(std::memory_order_relaxed);
}

ChainCacheStats ChainVerifier::stats() const {
  const State& st = *state_;
  ChainCacheStats out;
  out.hits = st.hits.load(std::memory_order_relaxed);
  out.misses = st.misses.load(std::memory_order_relaxed);
  out.invalidations = st.invalidations.load(std::memory_order_relaxed);
  return out;
}

void ChainVerifier::reset_stats() {
  State& st = *state_;
  st.hits.store(0, std::memory_order_relaxed);
  st.misses.store(0, std::memory_order_relaxed);
  st.invalidations.store(0, std::memory_order_relaxed);
}

}  // namespace omadrm::pki
