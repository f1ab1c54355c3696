#include "agent/content_session.h"

namespace omadrm::agent {

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
