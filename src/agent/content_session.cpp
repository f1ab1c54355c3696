#include "agent/content_session.h"

namespace omadrm::agent {

std::shared_ptr<const crypto::Aes> AesContextCache::get(
    ByteView cek, std::string_view ro_id) {
  std::array<std::uint8_t, crypto::Sha1::kDigestSize> fp;
  crypto::Sha1 h;
  h.update(cek);
  h.finish_into(fp.data());

  // Linear scan: the cache is a handful of entries, and the fingerprint
  // compare is 20 bytes — cheaper than maintaining a side index.
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    if (it->fingerprint == fp) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it);
      return lru_.front().aes;
    }
  }

  ++stats_.misses;
  auto aes = std::make_shared<const crypto::Aes>(cek);
  lru_.push_front(Entry{fp, std::string(ro_id), aes});
  if (lru_.size() > capacity_) {
    lru_.pop_back();
    ++stats_.evictions;
  }
  return aes;
}

void AesContextCache::invalidate_ro(std::string_view ro_id) {
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->ro_id == ro_id) {
      it = lru_.erase(it);
      ++stats_.invalidations;
    } else {
      ++it;
    }
  }
}

void AesContextCache::clear() {
  stats_.invalidations += lru_.size();
  lru_.clear();
}

std::size_t ContentSession::read(std::span<std::uint8_t> out) {
  if (status_ != StatusCode::kOk) return 0;
  const std::size_t n = stream_.read(out);
  produced_ += n;
  if (stream_.done() && produced_ != plaintext_size_) {
    // Valid padding that contradicts the recorded plaintext size: the
    // container is inconsistent with itself (and therefore with the hash
    // the RO bound). Same verdict the one-shot path reported.
    status_ = StatusCode::kDcfHashMismatch;
  }
  return n;
}

void ContentSession::rewind() {
  if (aes_ == nullptr) return;  // never opened
  stream_.rewind();
  produced_ = 0;
  // A failed size check is a property of the container, not of the read
  // position — it would recur, so leave the status as is.
  if (status_ == StatusCode::kDcfHashMismatch) return;
  status_ = StatusCode::kOk;
}

Bytes ContentSession::read_all() {
  Bytes out;
  if (!ok()) return out;
  out.resize(static_cast<std::size_t>(bytes_remaining()));
  const std::size_t n = read(std::span<std::uint8_t>(out.data(), out.size()));
  out.resize(n);
  if (!stream_.done()) {
    // The padding promises more plaintext than the container recorded.
    status_ = StatusCode::kDcfHashMismatch;
  }
  return out;
}

}  // namespace omadrm::agent
