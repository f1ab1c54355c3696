// register: 4-pass re-registration, in-process on one thread.
//
// A fixed set of pre-minted devices take turns re-registering with a
// RightsIssuer bound to a GroupCommitStore over a sealed FileStore: the
// device chain is verified on the RI, the RI chain and OCSP response on
// the agent, and the RI commits twice per op.
#include <deque>

#include "agent/drm_agent.h"
#include "pki/authority.h"
#include "ri/rights_issuer.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace omadrm;  // NOLINT

constexpr std::uint64_t kNow = 1100000000;
constexpr std::size_t kRsaBits = 1024;
constexpr std::size_t kDevices = 4;
constexpr std::size_t kWarmupRounds = 10;  // registrations per device

class Register final : public Workload {
 public:
  explicit Register(const FixtureOptions& o)
      : rng_(derive_seed(o.seed, o.rep, 1)),
        ri_rng_(derive_seed(o.seed, o.rep, 2)),
        validity_{kNow - 86400, kNow + 365 * 86400},
        ca_("Register Root", kRsaBits, validity_, rng_),
        ica_("Register Intermediate", kRsaBits, ca_, validity_, rng_),
        ri_crypto_(provider_for(traced_ri_, o.traced, "ri")),
        agent_crypto_(provider_for(traced_agent_, o.traced, "agent")),
        ri_("ri:register", "http://ri.register/roap", ca_, validity_,
            *ri_crypto_, ri_rng_, &ica_, kRsaBits),
        store_(o.state_dir + "/ri", store::derive_storage_key(rng_.bytes(16)),
               /*group_commit=*/true, o.traced),
        wire_(ri_, kNow) {
    if (!ri_.bind_store(store_.front()).ok()) {
      throw std::runtime_error("register: RI bind_store failed");
    }
    link_ = &wire_;
    if (o.traced) {
      traced_link_.emplace(wire_);
      link_ = &*traced_link_;
    }
    for (std::size_t i = 0; i < kDevices; ++i) {
      DeterministicRng& rng = device_rngs_.emplace_back(derive_seed(o.seed, o.rep, 10 + i));
      const std::string id = "dev:register-" + std::to_string(i);
      auto& dev = devices_.emplace_back(std::make_unique<agent::DrmAgent>(
          id, ca_.root_certificate(), *agent_crypto_, rng, kRsaBits));
      dev->provision(ca_.issue(id, dev->public_key(), validity_, rng_));
    }
    std::uint64_t bytes = 0;
    for (std::size_t k = 0; k < kWarmupRounds * kDevices; ++k) {
      if (!op(0, bytes)) throw std::runtime_error("register: warm-up failed");
    }
  }

  bool op(std::size_t, std::uint64_t& bytes) override {
    agent::DrmAgent& dev = *devices_[next_++ % kDevices];
    const std::uint64_t before = wire_.wire_bytes();
    Result<> r;
    {
      trace::Scope s(trace::kAgentRegister);
      r = dev.register_with(*link_, kNow);
    }
    bytes += wire_.wire_bytes() - before;
    return r.ok() && dev.has_ri_context(ri_.ri_id()) &&
           ri_.is_registered(dev.device_id());
  }

 private:
  DeterministicRng rng_;
  DeterministicRng ri_rng_;
  pki::Validity validity_;
  pki::CertificationAuthority ca_;
  pki::SubordinateAuthority ica_;
  std::optional<trace::TracedProvider> traced_ri_;
  std::optional<trace::TracedProvider> traced_agent_;
  provider::CryptoProvider* ri_crypto_;
  provider::CryptoProvider* agent_crypto_;
  ri::RightsIssuer ri_;
  StoreChain store_;
  WireTransport wire_;
  std::optional<trace::TracedTransport> traced_link_;
  roap::Transport* link_ = nullptr;
  std::deque<DeterministicRng> device_rngs_;
  std::vector<std::unique_ptr<agent::DrmAgent>> devices_;
  std::size_t next_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_register(const FixtureOptions& options) {
  return std::make_unique<Register>(options);
}

}  // namespace perfbench
