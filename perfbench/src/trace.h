// Outside-in layer tracing for the traced run.
//
// Spans are recorded by the benchmark's own decorators and timers around
// calls into the program's public functions — nothing inside the program
// is instrumented. Each worker thread owns one Recorder; a span records
// its name, start, end, parent and op id, stays in memory, and is written
// out when the run ends. With no recorder attached to the thread (every
// untraced run) a Scope reads no clock and records nothing.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "provider/provider.h"
#include "roap/transport.h"
#include "store/state_store.h"

namespace perfbench::trace {

struct Span {
  std::uint32_t name;
  std::uint32_t parent;  // index + 1 into the same recorder; 0 = op root
  std::uint64_t op;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

struct Recorder {
  std::vector<Span> spans;
  std::vector<std::uint32_t> open;  // indices of the spans still running
  std::map<std::uint32_t, std::uint64_t> counters;  // by interned name
  std::uint64_t op = 0;
};

/// Interns a span or counter name. Not thread-safe: call at set-up time.
std::uint32_t intern(std::string_view name);
const std::string& name_of(std::uint32_t id);

/// A recorder owned by the trace registry; lives until reset().
Recorder* new_recorder();
/// Drops every recorder and its spans.
void reset();

/// Binds the calling thread to `recorder` (nullptr detaches).
void attach(Recorder* recorder);
void begin_op(std::uint64_t op);
/// Adds `n` to a named counter of the calling thread's recorder.
void count(std::uint32_t counter, std::uint64_t n);

/// Times one call: opened in the constructor, closed in the destructor.
class Scope {
 public:
  explicit Scope(std::uint32_t name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder* recorder_;
  std::uint32_t index_ = 0;
};

// Span names used by more than one file.
extern const std::uint32_t kRoapRequest;
extern const std::uint32_t kRoapCodec;
extern const std::uint32_t kRiHandle;
extern const std::uint32_t kStoreCommit;
extern const std::uint32_t kStoreBacking;
extern const std::uint32_t kDcfParse;
extern const std::uint32_t kContentOpen;
extern const std::uint32_t kContentRead;
extern const std::uint32_t kAgentRegister;
extern const std::uint32_t kAgentAcquire;
extern const std::uint32_t kAgentInstall;

/// CryptoProvider decorator: one span per call, named
/// crypto.<side>.<function>, plus byte counters for the streaming-content
/// charge_* reports.
class TracedProvider final : public omadrm::provider::CryptoProvider {
 public:
  TracedProvider(omadrm::provider::CryptoProvider& inner,
                 std::string_view side);

  omadrm::Bytes sha1(omadrm::ByteView data) override;
  omadrm::Bytes hmac_sha1(omadrm::ByteView key, omadrm::ByteView data) override;
  bool hmac_verify(omadrm::ByteView key, omadrm::ByteView data,
                   omadrm::ByteView tag) override;
  omadrm::Bytes aes_cbc_encrypt(omadrm::ByteView key, omadrm::ByteView iv,
                                omadrm::ByteView plaintext) override;
  omadrm::Bytes aes_cbc_decrypt(omadrm::ByteView key, omadrm::ByteView iv,
                                omadrm::ByteView ciphertext) override;
  omadrm::Bytes aes_wrap(omadrm::ByteView kek,
                         omadrm::ByteView key_data) override;
  std::optional<omadrm::Bytes> aes_unwrap(omadrm::ByteView kek,
                                          omadrm::ByteView wrapped) override;
  omadrm::Bytes kdf2(omadrm::ByteView z, std::size_t out_len) override;
  void charge_sha1(std::size_t data_len) override;
  void charge_aes_cbc_decrypt(std::size_t ciphertext_len) override;
  omadrm::Bytes pss_sign(const omadrm::rsa::PrivateKey& key,
                         omadrm::ByteView message, omadrm::Rng& rng) override;
  bool pss_verify(const omadrm::rsa::PublicKey& key, omadrm::ByteView message,
                  omadrm::ByteView signature) override;
  omadrm::rsa::KemEncapsulation kem_encapsulate(
      const omadrm::rsa::PublicKey& key, omadrm::Rng& rng) override;
  omadrm::Bytes kem_decapsulate(const omadrm::rsa::PrivateKey& key,
                                omadrm::ByteView c1) override;

 private:
  enum Fn {
    kSha1, kHmacSha1, kHmacVerify, kAesCbcEncrypt, kAesCbcDecrypt, kAesWrap,
    kAesUnwrap, kKdf2, kPssSign, kPssVerify, kKemEncapsulate,
    kKemDecapsulate, kSha1Bytes, kAesCbcBytes, kFnCount
  };
  omadrm::provider::CryptoProvider& inner_;
  std::uint32_t names_[kFnCount];
};

/// Transport decorator: one roap.request span per exchange.
class TracedTransport final : public omadrm::roap::Transport {
 public:
  explicit TracedTransport(omadrm::roap::Transport& inner) : inner_(inner) {}
  omadrm::roap::Envelope request(const omadrm::roap::Envelope& request) override;

 private:
  omadrm::roap::Transport& inner_;
};

/// StateStore decorator: one span per commit under the given name.
class TracedStore final : public omadrm::store::StateStore {
 public:
  TracedStore(omadrm::store::StateStore& inner, std::uint32_t name)
      : inner_(inner), name_(name) {}
  omadrm::Result<> commit(const omadrm::store::Transaction& tx) override;
  omadrm::Result<std::vector<omadrm::store::Record>> load() override {
    return inner_.load();
  }
  std::uint64_t generation() const override { return inner_.generation(); }

 private:
  omadrm::store::StateStore& inner_;
  std::uint32_t name_;
};

/// Per-layer totals over every recorder, each divided by `ops`.
struct Summary {
  std::map<std::string, double> metrics;  // per-layer metric name -> value
  std::vector<double> roap_request_ms;    // one entry per exchange
  /// Spans whose children overlap each other or leave the parent's
  /// interval; nonzero means the trace cannot account for its time.
  std::uint64_t accounting_violations = 0;
};
Summary summarize(double ops);

/// Writes every span as TSV (thread, op, name, parent, start_ns, end_ns);
/// `parent` indexes the spans of the same thread, 1-based, 0 = none.
bool write_spans(const std::string& path);

}  // namespace perfbench::trace
