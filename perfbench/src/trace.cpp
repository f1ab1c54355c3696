#include "trace.h"

#include <chrono>
#include <cstdio>
#include <memory>

namespace perfbench::trace {

namespace {

struct Registry {
  std::vector<std::string> names;
  std::map<std::string, std::uint32_t, std::less<>> ids;
  std::vector<std::unique_ptr<Recorder>> recorders;
};

Registry& registry() {
  static Registry r;
  return r;
}

thread_local Recorder* t_recorder = nullptr;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::uint32_t intern(std::string_view name) {
  Registry& r = registry();
  auto it = r.ids.find(name);
  if (it != r.ids.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(r.names.size());
  r.names.emplace_back(name);
  r.ids.emplace(std::string(name), id);
  return id;
}

const std::string& name_of(std::uint32_t id) { return registry().names.at(id); }

Recorder* new_recorder() {
  auto& recorders = registry().recorders;
  recorders.push_back(std::make_unique<Recorder>());
  recorders.back()->spans.reserve(1 << 20);
  return recorders.back().get();
}

void reset() { registry().recorders.clear(); }

void attach(Recorder* recorder) { t_recorder = recorder; }

void begin_op(std::uint64_t op) {
  if (t_recorder != nullptr) t_recorder->op = op;
}

void count(std::uint32_t counter, std::uint64_t n) {
  if (t_recorder != nullptr) t_recorder->counters[counter] += n;
}

Scope::Scope(std::uint32_t name) : recorder_(t_recorder) {
  if (recorder_ == nullptr) return;
  index_ = static_cast<std::uint32_t>(recorder_->spans.size());
  const std::uint32_t parent =
      recorder_->open.empty() ? 0 : recorder_->open.back() + 1;
  recorder_->open.push_back(index_);
  recorder_->spans.push_back({name, parent, recorder_->op, now_ns(), 0});
}

Scope::~Scope() {
  if (recorder_ == nullptr) return;
  recorder_->spans[index_].end_ns = now_ns();
  recorder_->open.pop_back();
}

const std::uint32_t kRoapRequest = intern("roap.request");
const std::uint32_t kRoapCodec = intern("roap.codec");
const std::uint32_t kRiHandle = intern("ri.handle");
const std::uint32_t kStoreCommit = intern("store.commit");
const std::uint32_t kStoreBacking = intern("store.backing");
const std::uint32_t kDcfParse = intern("dcf.parse");
const std::uint32_t kContentOpen = intern("content.open");
const std::uint32_t kContentRead = intern("content.read");
const std::uint32_t kAgentRegister = intern("agent.register");
const std::uint32_t kAgentAcquire = intern("agent.acquire");
const std::uint32_t kAgentInstall = intern("agent.install");

// ---------------------------------------------------------------------------
// Decorators
// ---------------------------------------------------------------------------

using omadrm::Bytes;
using omadrm::ByteView;

TracedProvider::TracedProvider(omadrm::provider::CryptoProvider& inner,
                               std::string_view side)
    : inner_(inner) {
  static const char* const kFnNames[kFnCount] = {
      "sha1",      "hmac_sha1",       "hmac_verify",     "aes_cbc_encrypt",
      "aes_cbc_decrypt", "aes_wrap",  "aes_unwrap",      "kdf2",
      "pss_sign",  "pss_verify",      "kem_encapsulate", "kem_decapsulate",
      "sha1_bytes", "aes_cbc_bytes"};
  for (int fn = 0; fn < kFnCount; ++fn) {
    names_[fn] = intern("crypto." + std::string(side) + "." + kFnNames[fn]);
  }
}

Bytes TracedProvider::sha1(ByteView data) {
  Scope s(names_[kSha1]);
  return inner_.sha1(data);
}
Bytes TracedProvider::hmac_sha1(ByteView key, ByteView data) {
  Scope s(names_[kHmacSha1]);
  return inner_.hmac_sha1(key, data);
}
bool TracedProvider::hmac_verify(ByteView key, ByteView data, ByteView tag) {
  Scope s(names_[kHmacVerify]);
  return inner_.hmac_verify(key, data, tag);
}
Bytes TracedProvider::aes_cbc_encrypt(ByteView key, ByteView iv,
                                      ByteView plaintext) {
  Scope s(names_[kAesCbcEncrypt]);
  return inner_.aes_cbc_encrypt(key, iv, plaintext);
}
Bytes TracedProvider::aes_cbc_decrypt(ByteView key, ByteView iv,
                                      ByteView ciphertext) {
  Scope s(names_[kAesCbcDecrypt]);
  return inner_.aes_cbc_decrypt(key, iv, ciphertext);
}
Bytes TracedProvider::aes_wrap(ByteView kek, ByteView key_data) {
  Scope s(names_[kAesWrap]);
  return inner_.aes_wrap(kek, key_data);
}
std::optional<Bytes> TracedProvider::aes_unwrap(ByteView kek,
                                                ByteView wrapped) {
  Scope s(names_[kAesUnwrap]);
  return inner_.aes_unwrap(kek, wrapped);
}
Bytes TracedProvider::kdf2(ByteView z, std::size_t out_len) {
  Scope s(names_[kKdf2]);
  return inner_.kdf2(z, out_len);
}
void TracedProvider::charge_sha1(std::size_t data_len) {
  count(names_[kSha1Bytes], data_len);
  inner_.charge_sha1(data_len);
}
void TracedProvider::charge_aes_cbc_decrypt(std::size_t ciphertext_len) {
  count(names_[kAesCbcBytes], ciphertext_len);
  inner_.charge_aes_cbc_decrypt(ciphertext_len);
}
Bytes TracedProvider::pss_sign(const omadrm::rsa::PrivateKey& key,
                               ByteView message, omadrm::Rng& rng) {
  Scope s(names_[kPssSign]);
  return inner_.pss_sign(key, message, rng);
}
bool TracedProvider::pss_verify(const omadrm::rsa::PublicKey& key,
                                ByteView message, ByteView signature) {
  Scope s(names_[kPssVerify]);
  return inner_.pss_verify(key, message, signature);
}
omadrm::rsa::KemEncapsulation TracedProvider::kem_encapsulate(
    const omadrm::rsa::PublicKey& key, omadrm::Rng& rng) {
  Scope s(names_[kKemEncapsulate]);
  return inner_.kem_encapsulate(key, rng);
}
Bytes TracedProvider::kem_decapsulate(const omadrm::rsa::PrivateKey& key,
                                      ByteView c1) {
  Scope s(names_[kKemDecapsulate]);
  return inner_.kem_decapsulate(key, c1);
}

omadrm::roap::Envelope TracedTransport::request(
    const omadrm::roap::Envelope& request) {
  Scope s(kRoapRequest);
  return inner_.request(request);
}

omadrm::Result<> TracedStore::commit(const omadrm::store::Transaction& tx) {
  Scope s(name_);
  return inner_.commit(tx);
}

// ---------------------------------------------------------------------------
// Summary
// ---------------------------------------------------------------------------

Summary summarize(double ops) {
  struct Totals {
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t calls = 0;
  };
  Summary out;
  std::map<std::uint32_t, Totals> by_name;
  std::map<std::uint32_t, std::uint64_t> counters;

  for (const auto& rec : registry().recorders) {
    const std::vector<Span>& spans = rec->spans;
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    std::vector<std::int64_t> last_child_end(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::int64_t dur = s.end_ns - s.start_ns;
      if (s.end_ns == 0 || dur < 0) ++out.accounting_violations;
      if (s.parent != 0) {
        const std::size_t p = s.parent - 1;
        const Span& ps = spans[p];
        // Spans are stored in start order, so a child that begins before
        // its previous sibling ended, or outside its parent, is an overlap.
        if (s.start_ns < ps.start_ns || s.end_ns > ps.end_ns ||
            s.start_ns < last_child_end[p] || ps.op != s.op) {
          ++out.accounting_violations;
        }
        last_child_end[p] = s.end_ns;
        child_ns[p] += dur;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      Totals& t = by_name[s.name];
      const std::int64_t dur = s.end_ns - s.start_ns;
      t.total_ns += dur;
      t.self_ns += dur - child_ns[i];
      ++t.calls;
      if (s.name == kRoapRequest) out.roap_request_ms.push_back(dur * 1e-6);
    }
    for (const auto& [id, n] : rec->counters) counters[id] += n;
  }

  const double per_op = ops > 0 ? 1.0 / ops : 0;
  double agent_call_ns = 0, agent_self_ns = 0;
  for (const auto& [id, t] : by_name) {
    const std::string& name = name_of(id);
    out.metrics[name + ".ms_per_op"] = static_cast<double>(t.total_ns) * 1e-6 * per_op;
    out.metrics[name + ".calls_per_op"] = static_cast<double>(t.calls) * per_op;
    if (id == kAgentRegister || id == kAgentAcquire || id == kAgentInstall ||
        id == kContentOpen) {
      agent_call_ns += static_cast<double>(t.total_ns);
      agent_self_ns += static_cast<double>(t.self_ns);
    }
  }
  for (const auto& [id, n] : counters) {
    out.metrics[name_of(id) + "_per_op"] = static_cast<double>(n) * per_op;
  }
  out.metrics["agent.call.ms_per_op"] = agent_call_ns * 1e-6 * per_op;
  out.metrics["agent.self.ms_per_op"] = agent_self_ns * 1e-6 * per_op;
  out.metrics["store.commits_per_op"] = out.metrics["store.commit.calls_per_op"];
  out.metrics["store.backing_commits_per_op"] =
      out.metrics["store.backing.calls_per_op"];
  out.metrics["roap.requests_per_op"] = out.metrics["roap.request.calls_per_op"];
  return out;
}

bool write_spans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("thread\top\tname\tparent\tstart_ns\tend_ns\n", f);
  const auto& recorders = registry().recorders;
  for (std::size_t t = 0; t < recorders.size(); ++t) {
    for (const Span& s : recorders[t]->spans) {
      std::fprintf(f, "%zu\t%llu\t%s\t%u\t%lld\t%lld\n", t,
                   static_cast<unsigned long long>(s.op),
                   name_of(s.name).c_str(), s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
