// music and ringtone: one access to a packaged DCF per op.
//
// Each op parses the container (dcf::DcfReader, which folds the SHA-1
// binding hash into its single pass), opens it through the agent and
// drains ContentSession::read into a reused 64 KiB buffer, comparing
// every chunk with the packaged plaintext.
//
//   music     3.5 MiB, unconstrained RO, agent unbound: bulk SHA-1 and
//             AES-CBC, no RSA, socket or store.
//   ringtone  30 KiB, count-constrained RO, agent bound to a sealed
//             FileStore: every access burns one count and commits it
//             before the session is returned.
#include <cstring>

#include "agent/drm_agent.h"
#include "ci/content_issuer.h"
#include "dcf/dcf_reader.h"
#include "pki/authority.h"
#include "ri/rights_issuer.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace omadrm;  // NOLINT

constexpr std::uint64_t kNow = 1100000000;
constexpr std::size_t kRsaBits = 1024;
constexpr std::size_t kReadChunk = 64 * 1024;
// Far more accesses than any run can make, so the count never runs out.
constexpr std::uint32_t kRingtoneCount = 4000000000u;

struct ContentSpec {
  const char* name;
  std::size_t bytes;
  bool count_constrained;  // ringtone: count + durable burn
  std::size_t warmup_ops;
};

constexpr ContentSpec kMusic{"music", 3584 * 1024, false, 20};
constexpr ContentSpec kRingtone{"ringtone", 30 * 1024, true, 500};

class Content final : public Workload {
 public:
  Content(const ContentSpec& spec, const FixtureOptions& o)
      : spec_(spec),
        rng_(derive_seed(o.seed, o.rep, 1)),
        agent_rng_(derive_seed(o.seed, o.rep, 2)),
        validity_{kNow - 86400, kNow + 365 * 86400},
        crypto_(provider_for(traced_, o.traced, "agent")),
        ca_("Content Root", kRsaBits, validity_, rng_),
        ri_("ri:content", "http://ri.content/roap", ca_, validity_,
            provider::plain_provider(), rng_, nullptr, kRsaBits),
        agent_("dev:" + std::string(spec.name), ca_.root_certificate(),
               *crypto_, agent_rng_, kRsaBits),
        buffer_(kReadChunk) {
    // Content bytes and the container come from the seed.
    DeterministicRng content_rng(derive_seed(o.seed, o.rep, 3));
    plaintext_ = content_rng.bytes(spec.bytes);
    ci::ContentIssuer issuer("content.example", provider::plain_provider(), rng_);
    dcf::Headers headers;
    headers.content_type = spec.count_constrained ? "audio/midi" : "audio/mpeg";
    headers.content_id = "cid:" + std::string(spec.name) + "@content.example";
    headers.rights_issuer_url = ri_.url();
    const dcf::Dcf dcf = issuer.package(headers, plaintext_);
    container_ = dcf.serialize();

    ri::LicenseOffer offer;
    offer.ro_id = "ro:" + std::string(spec.name);
    offer.content_id = headers.content_id;
    offer.dcf_hash = dcf.hash();
    rel::Permission play;
    play.type = rel::PermissionType::kPlay;
    if (spec.count_constrained) play.constraint.count = kRingtoneCount;
    offer.permissions = {play};
    offer.kcek = *issuer.kcek_for(headers.content_id);
    ri_.add_offer(offer);
    ro_id_ = offer.ro_id;

    agent_.provision(ca_.issue(agent_.device_id(), agent_.public_key(),
                               validity_, rng_));
    WireTransport link(ri_, kNow);
    Result<roap::ProtectedRo> ro(StatusCode::kTransportFailure);
    if (agent_.register_with(link, kNow).ok()) {
      ro = agent_.acquire_ro(link, ri_.ri_id(), ro_id_, kNow);
    }
    if (!ro.ok() || agent_.install_ro(*ro, kNow) != agent::AgentStatus::kOk) {
      throw std::runtime_error("content: RO installation failed");
    }
    if (spec.count_constrained) {
      store_.emplace(o.state_dir + "/agent",
                     store::derive_storage_key(agent_.device_key()),
                     /*group_commit=*/false, o.traced);
      if (!agent_.bind_store(store_->front()).ok()) {
        throw std::runtime_error("content: agent bind_store failed");
      }
    }
    std::uint64_t bytes = 0;
    for (std::size_t k = 0; k < spec.warmup_ops; ++k) {
      if (!op(0, bytes)) throw std::runtime_error("content: warm-up failed");
    }
  }

  bool op(std::size_t, std::uint64_t& bytes) override {
    const std::optional<std::uint32_t> before =
        agent_.remaining_count(ro_id_, rel::PermissionType::kPlay);
    std::optional<dcf::DcfReader> reader;
    {
      trace::Scope s(trace::kDcfParse);
      reader.emplace(dcf::DcfReader::parse(container_));
    }
    agent::ContentSession session;
    {
      trace::Scope s(trace::kContentOpen);
      session = agent_.open_content(*reader, rel::PermissionType::kPlay, kNow);
    }
    if (!session.ok()) return false;
    std::size_t offset = 0;
    for (;;) {
      std::size_t n;
      {
        trace::Scope s(trace::kContentRead);
        n = session.read(buffer_);
      }
      if (n == 0) break;
      if (offset + n > plaintext_.size() ||
          std::memcmp(buffer_.data(), plaintext_.data() + offset, n) != 0) {
        return false;
      }
      offset += n;
    }
    if (offset != plaintext_.size()) return false;
    bytes += offset;

    const std::optional<std::uint32_t> after =
        agent_.remaining_count(ro_id_, rel::PermissionType::kPlay);
    if (!spec_.count_constrained) return !before && !after;
    if (!before || !after || *after + 1 != *before) return false;
    ++burns_;
    return true;
  }

  void mark() override { burns_ = 0; }

  void layer_counters(std::map<std::string, double>& out,
                      double ops) const override {
    out["rel.burns_per_op"] = ops > 0 ? static_cast<double>(burns_) / ops : 0;
  }

 private:
  const ContentSpec& spec_;
  DeterministicRng rng_;
  DeterministicRng agent_rng_;
  pki::Validity validity_;
  std::optional<trace::TracedProvider> traced_;
  provider::CryptoProvider* crypto_;
  pki::CertificationAuthority ca_;
  ri::RightsIssuer ri_;
  agent::DrmAgent agent_;
  std::optional<StoreChain> store_;
  Bytes plaintext_;
  Bytes container_;
  std::string ro_id_;
  Bytes buffer_;
  std::uint64_t burns_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_music(const FixtureOptions& options) {
  return std::make_unique<Content>(kMusic, options);
}

std::unique_ptr<Workload> make_ringtone(const FixtureOptions& options) {
  return std::make_unique<Content>(kRingtone, options);
}

}  // namespace perfbench
