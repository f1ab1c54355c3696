// Real concurrency inside the sharded RightsIssuer — the suite the TSan
// CI job runs. Each test hammers a cross-thread invariant the shard map
// promises:
//
//   - a duplicate request racing its original on another worker resolves
//     to ONE issuance plus byte-identical cached replies (the loser
//     waits on the shard lock, then hits the replay cache);
//   - registrations / acquisitions for different devices proceed on
//     their shards concurrently without tearing counters or sessions;
//   - re-registrations, of distinct devices and of one device from two
//     threads, reuse the certificates both ends hold and build no
//     Montgomery context;
//   - a device revoked mid-run is refused while the others keep
//     registering on their held verdicts;
//   - domain join/leave storms across devices in different shards
//     converge to consistent membership, and the persisted image
//     rebuilds an identical RI;
//   - GroupCommitStore merges concurrent commits into batches without
//     losing, reordering-within-tx, or falsely acknowledging any;
//   - one RSA key's Montgomery context slots survive racing first uses.
//
// Agents are thread-confined (one device + one transport per thread);
// only the RI and the store are shared — exactly the server's shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "agent/drm_agent.h"
#include "agent/sessions.h"
#include "bigint/montgomery.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "pki/authority.h"
#include "provider/provider.h"
#include "ri/rights_issuer.h"
#include "roap/envelope.h"
#include "roap/messages.h"
#include "roap/retry.h"
#include "roap/transport.h"
#include "rsa/rsa.h"
#include "oracle/rsa_bigint.h"
#include "store/group_commit_store.h"
#include "store/memory_store.h"

namespace omadrm {
namespace {

using agent::DrmAgent;

constexpr std::uint64_t kNow = 1100000000;
const pki::Validity kValidity{kNow - 86400, kNow + 365 * 86400};

/// Counts the RI's RSA operations — the proof that the loser of a
/// replay-duplicate race pays zero of them.
class CountingProvider final : public provider::PlainCryptoProvider {
 public:
  Bytes pss_sign(const rsa::PrivateKey& key, ByteView message,
                 Rng& rng) override {
    ++signs;
    return PlainCryptoProvider::pss_sign(key, message, rng);
  }
  bool pss_verify(const rsa::PublicKey& key, ByteView message,
                  ByteView signature) override {
    ++verifies;
    return PlainCryptoProvider::pss_verify(key, message, signature);
  }
  rsa::KemEncapsulation kem_encapsulate(const rsa::PublicKey& key,
                                        Rng& rng) override {
    ++encapsulations;
    return PlainCryptoProvider::kem_encapsulate(key, rng);
  }

  std::atomic<std::uint64_t> signs{0};
  std::atomic<std::uint64_t> verifies{0};
  std::atomic<std::uint64_t> encapsulations{0};
  std::uint64_t total() const { return signs + verifies + encapsulations; }
};

/// One thread's worth of client state: its own rng (DrmAgent keeps the
/// reference and draws nonces from it mid-session) and its own agent.
struct Device {
  Device(const std::string& id, pki::CertificationAuthority& ca,
         std::uint64_t seed)
      : rng(seed),
        agent(id, ca.root_certificate(), provider::plain_provider(), rng) {
    agent.provision(ca.issue(id, agent.public_key(), kValidity, rng));
  }
  DeterministicRng rng;
  DrmAgent agent;
};

/// Spin barrier: release all racing threads in the same instant so the
/// interesting interleavings actually happen (a started thread is
/// otherwise likely to finish before the next one launches).
class StartGate {
 public:
  explicit StartGate(int parties) : waiting_(parties) {}
  void arrive_and_wait() {
    waiting_.fetch_sub(1, std::memory_order_acq_rel);
    while (waiting_.load(std::memory_order_acquire) > 0) {
    }
  }

 private:
  std::atomic<int> waiting_;
};

class ConcurrentRi : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<DeterministicRng>(0x5AFE);
    ca_ = std::make_unique<pki::CertificationAuthority>("CMLA Root", 1024,
                                                        kValidity, *rng_);
    ri_ = std::make_unique<ri::RightsIssuer>("ri.example",
                                             "http://ri.example/roap", *ca_,
                                             kValidity, counting_, *rng_);
    ri::LicenseOffer offer;
    offer.ro_id = "ro:conc";
    offer.content_id = "cid:conc@content.example";
    offer.dcf_hash = Bytes(20, 0x24);
    rel::Permission play;
    play.type = rel::PermissionType::kPlay;
    offer.permissions = {play};
    offer.kcek = rng_->bytes(16);
    ri_->add_offer(offer);
  }

  CountingProvider counting_;
  std::unique_ptr<DeterministicRng> rng_;
  std::unique_ptr<pki::CertificationAuthority> ca_;
  std::unique_ptr<ri::RightsIssuer> ri_;
};

// ---------------------------------------------------------------------------
// The replay-duplicate race — the tentpole guarantee
// ---------------------------------------------------------------------------

TEST_F(ConcurrentRi, ReplayDuplicateRaceYieldsOneIssuanceAndIdenticalBytes) {
  Device dev("device-race", *ca_, 0xD1);
  roap::InProcessTransport loop(*ri_, kNow);
  ASSERT_TRUE(dev.agent.register_with(loop, kNow).ok());

  // One signed RoRequest; every thread delivers the SAME bytes, modeling
  // a retry storm fanned across server workers.
  agent::AcquisitionSession session(dev.agent, "ri.example", "ro:conc", kNow);
  auto req = session.request();
  ASSERT_TRUE(req.ok()) << req.describe();
  const roap::Envelope request = *req;

  const std::uint64_t ros_before = ri_->counters().ros_issued;
  const auto replay_before = ri_->replay_cache_stats();

  constexpr int kThreads = 4;
  StartGate gate(kThreads);
  std::vector<std::string> wires(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      gate.arrive_and_wait();
      wires[i] = ri_->handle(request, kNow).wire();
    });
  }
  for (auto& t : threads) t.join();

  // Exactly one thread won the shard lock and minted; everyone else was
  // served the winner's bytes from the cache.
  EXPECT_EQ(ri_->counters().ros_issued - ros_before, 1u);
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(wires[i], wires[0]);
  const auto replay_after = ri_->replay_cache_stats();
  EXPECT_EQ(replay_after.hits - replay_before.hits,
            static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(replay_after.insertions - replay_before.insertions, 1u);

  // A straggler arriving after the dust settles costs zero RSA ops.
  const std::uint64_t rsa = counting_.total();
  EXPECT_EQ(ri_->handle(request, kNow).wire(), wires[0]);
  EXPECT_EQ(counting_.total(), rsa);

  // And the raced response is a valid, installable RO.
  auto ro = session.conclude(roap::Envelope::from_wire(wires[0]));
  ASSERT_TRUE(ro.ok()) << ro.describe();
  EXPECT_EQ(dev.agent.install_ro(*ro, kNow), agent::AgentStatus::kOk);
}

// ---------------------------------------------------------------------------
// Cross-shard registration / acquisition traffic
// ---------------------------------------------------------------------------

TEST_F(ConcurrentRi, ConcurrentRegistrationsAcrossShardsStayDisjoint) {
  constexpr int kDevices = 8;
  std::vector<std::unique_ptr<Device>> devices;
  std::set<std::size_t> shards_touched;
  for (int i = 0; i < kDevices; ++i) {
    const std::string id = "device-shard-" + std::to_string(i);
    devices.push_back(std::make_unique<Device>(id, *ca_, 0xA0 + i));
    shards_touched.insert(ri::RightsIssuer::shard_of(id));
  }
  // The ids must actually spread; a single hot shard would make this a
  // serialization test, not a sharding test.
  ASSERT_GE(shards_touched.size(), 2u);

  StartGate gate(kDevices);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kDevices; ++i) {
    threads.emplace_back([&, i] {
      roap::InProcessTransport loop(*ri_, kNow);
      gate.arrive_and_wait();
      if (!devices[i]->agent.register_with(loop, kNow).ok()) ++failures;
      if (!devices[i]->agent.acquire_ro(loop, "ri.example", "ro:conc", kNow)
               .ok()) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ri_->counters().registrations, static_cast<std::uint64_t>(kDevices));
  EXPECT_EQ(ri_->counters().ros_issued, static_cast<std::uint64_t>(kDevices));
  EXPECT_EQ(ri_->pending_session_count(), 0u);
  for (const auto& d : devices) {
    EXPECT_TRUE(ri_->is_registered(d->agent.device_id()));
  }
  // Every request was counted on exactly one shard: 2 registration
  // passes + 1 acquisition per device, no more, no less.
  std::uint64_t exchanges = 0;
  for (const auto& sh : ri_->shard_stats()) exchanges += sh.exchanges;
  EXPECT_EQ(exchanges, static_cast<std::uint64_t>(kDevices * 3));
}

TEST_F(ConcurrentRi, ReRegistrationsReuseStoredCertificatesUnderContention) {
  // Four threads re-register distinct devices spread over the shards while
  // two threads re-register one device identity (two agents restored from
  // one image, so both send the same certificate and race on one shard);
  // every thread acquires after each registration. Once each agent has
  // registered, neither end decodes a certificate again, so the whole run
  // builds no Montgomery context.
  constexpr int kSolo = 4;
  constexpr int kRounds = 4;
  std::vector<std::unique_ptr<Device>> solo;
  std::set<std::size_t> shards_touched;
  for (int i = 0; i < kSolo; ++i) {
    const std::string id = "device-rereg-" + std::to_string(i);
    solo.push_back(std::make_unique<Device>(id, *ca_, 0xE0 + i));
    shards_touched.insert(ri::RightsIssuer::shard_of(id));
  }
  ASSERT_GE(shards_touched.size(), 2u);
  Device twin("device-twin", *ca_, 0xF0);
  DeterministicRng twin2_rng(0xF1);
  DrmAgent twin2("device-twin", ca_->root_certificate(),
                 provider::plain_provider(), twin2_rng);
  twin2.import_state(twin.agent.export_state());
  ASSERT_EQ(twin2.certificate().to_der(), twin.agent.certificate().to_der());

  std::vector<DrmAgent*> agents;
  for (auto& d : solo) agents.push_back(&d->agent);
  agents.push_back(&twin.agent);
  agents.push_back(&twin2);
  const int kThreads = static_cast<int>(agents.size());

  // A twin's handshake can be superseded by the other twin's newer
  // DeviceHello; the RI answers kSessionExpired and the driver restarts.
  roap::RetryPolicy policy = roap::kSingleShot;
  policy.max_restarts = 1000;

  // Warm-up: every agent registers and acquires once, serially.
  {
    roap::InProcessTransport loop(*ri_, kNow);
    for (DrmAgent* a : agents) {
      ASSERT_TRUE(a->register_with(loop, kNow).ok()) << a->device_id();
      auto ro = a->acquire_ro(loop, "ri.example", "ro:conc", kNow);
      ASSERT_TRUE(ro.ok()) << ro.describe();
    }
  }
  const ri::RiCounters before = ri_->counters();
  const std::uint64_t builds_before = bigint::montgomery_ctx_builds();

  StartGate gate(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      DrmAgent& a = *agents[i];
      roap::InProcessTransport loop(*ri_, kNow);
      gate.arrive_and_wait();
      for (int round = 0; round < kRounds; ++round) {
        if (!a.register_with(loop, kNow, policy).ok()) ++failures;
        auto ro = a.acquire_ro(loop, "ri.example", "ro:conc", kNow);
        if (!ro.ok() || a.install_ro(*ro, kNow) != agent::AgentStatus::kOk) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(bigint::montgomery_ctx_builds() - builds_before, 0u);
  const ri::RiCounters after = ri_->counters();
  EXPECT_EQ(after.registrations - before.registrations,
            static_cast<std::uint64_t>(kThreads * kRounds));
  EXPECT_EQ(after.ros_issued - before.ros_issued,
            static_cast<std::uint64_t>(kThreads * kRounds));
  EXPECT_EQ(ri_->pending_session_count(), 0u);
  for (DrmAgent* a : agents) {
    EXPECT_TRUE(ri_->is_registered(a->device_id()));
    EXPECT_TRUE(a->has_ri_context("ri.example"));
  }
}

TEST_F(ConcurrentRi, RevokedDeviceIsRefusedWhileOthersKeepRegistering) {
  // Four threads re-register and acquire for distinct devices; half-way
  // through, the CA revokes one of them. Its next registration denylists
  // the serial in the RI's verifier (the writer side of its lock) while
  // the other shards revalidate the verdicts they hold (the reader side).
  // The CA's revocation list is configuration state, not thread-safe, so
  // the revocation itself lands while the threads wait at a barrier.
  constexpr int kDevices = 4;
  constexpr int kRounds = 4;
  std::vector<std::unique_ptr<Device>> devices;
  std::set<std::size_t> shards_touched;
  for (int i = 0; i < kDevices; ++i) {
    const std::string id = "device-revoke-" + std::to_string(i);
    devices.push_back(std::make_unique<Device>(id, *ca_, 0xD0 + i));
    shards_touched.insert(ri::RightsIssuer::shard_of(id));
  }
  ASSERT_GE(shards_touched.size(), 2u);
  {
    roap::InProcessTransport loop(*ri_, kNow);
    for (auto& d : devices) {
      ASSERT_TRUE(d->agent.register_with(loop, kNow).ok());
    }
  }
  DrmAgent& revoked = devices[0]->agent;
  const ri::RiCounters before = ri_->counters();

  StartGate start(kDevices);
  StartGate halted(kDevices + 1);
  StartGate resumed(kDevices + 1);
  std::atomic<int> failures{0};
  std::atomic<int> refusals{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kDevices; ++i) {
    threads.emplace_back([&, i] {
      DrmAgent& a = devices[i]->agent;
      roap::InProcessTransport loop(*ri_, kNow);
      auto round = [&] {
        Result<> reg = a.register_with(loop, kNow);
        if (&a == &revoked && !reg.ok()) {
          refusals += reg.code() == StatusCode::kRiAborted ? 1 : 0;
          return;
        }
        if (!reg.ok()) ++failures;
        auto ro = a.acquire_ro(loop, "ri.example", "ro:conc", kNow);
        if (!ro.ok()) ++failures;
      };
      start.arrive_and_wait();
      for (int r = 0; r < kRounds; ++r) round();
      halted.arrive_and_wait();
      resumed.arrive_and_wait();
      for (int r = 0; r < kRounds; ++r) round();
    });
  }
  halted.arrive_and_wait();
  ca_->revoke(revoked.certificate().serial());
  resumed.arrive_and_wait();
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(refusals.load(), kRounds);
  const ri::RiCounters after = ri_->counters();
  EXPECT_EQ(after.registrations - before.registrations,
            static_cast<std::uint64_t>(kDevices * kRounds +
                                       (kDevices - 1) * kRounds));
  EXPECT_EQ(ri_->pending_session_count(), 0u);

  // Quiescent again: the revoked device stays refused, the others are
  // still served.
  roap::InProcessTransport loop(*ri_, kNow);
  EXPECT_EQ(revoked.register_with(loop, kNow + 1).code(),
            StatusCode::kRiAborted);
  for (int i = 1; i < kDevices; ++i) {
    EXPECT_TRUE(devices[i]->agent.register_with(loop, kNow + 1).ok());
  }
}

// ---------------------------------------------------------------------------
// Domain join/leave storm + durable rebuild
// ---------------------------------------------------------------------------

TEST_F(ConcurrentRi, DomainStormConvergesAndPersistedImageRebuilds) {
  store::MemoryStore backing;
  store::GroupCommitStore gc(backing);
  ASSERT_TRUE(ri_->bind_store(gc).ok());
  ri_->create_domain("domain:red", 16);
  ri_->create_domain("domain:blue", 16);

  constexpr int kDevices = 6;
  constexpr int kRounds = 8;
  std::vector<std::unique_ptr<Device>> devices;
  for (int i = 0; i < kDevices; ++i) {
    const std::string id = "device-dom-" + std::to_string(i);
    devices.push_back(std::make_unique<Device>(id, *ca_, 0xB0 + i));
    roap::InProcessTransport loop(*ri_, kNow);
    ASSERT_TRUE(devices[i]->agent.register_with(loop, kNow).ok());
  }

  StartGate gate(kDevices);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kDevices; ++i) {
    threads.emplace_back([&, i] {
      const std::string domain = (i % 2 == 0) ? "domain:red" : "domain:blue";
      roap::InProcessTransport loop(*ri_, kNow);
      gate.arrive_and_wait();
      for (int r = 0; r < kRounds; ++r) {
        if (!devices[i]->agent.join_domain(loop, "ri.example", domain, kNow)
                 .ok() ||
            !devices[i]->agent.leave_domain(loop, "ri.example", domain, kNow)
                 .ok()) {
          ++failures;
          return;
        }
      }
      // End joined, so final membership is observable.
      if (!devices[i]->agent.join_domain(loop, "ri.example", domain, kNow)
               .ok()) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  EXPECT_EQ(ri_->counters().domain_joins,
            static_cast<std::uint64_t>(kDevices * (kRounds + 1)));
  EXPECT_EQ(ri_->counters().domain_leaves,
            static_cast<std::uint64_t>(kDevices * kRounds));
  const ri::Domain* red = ri_->domain("domain:red");
  const ri::Domain* blue = ri_->domain("domain:blue");
  ASSERT_NE(red, nullptr);
  ASSERT_NE(blue, nullptr);
  EXPECT_EQ(red->members.size() + blue->members.size(),
            static_cast<std::size_t>(kDevices));
  for (int i = 0; i < kDevices; ++i) {
    const auto& members = (i % 2 == 0) ? red->members : blue->members;
    const std::string id = devices[i]->agent.device_id();
    EXPECT_NE(std::find(members.begin(), members.end(), id), members.end())
        << id << " lost its final join in the storm";
  }

  // Every membership change persisted through the group-commit path.
  const auto st = gc.stats();
  EXPECT_GT(st.committed_txs, 0u);
  EXPECT_GE(st.committed_txs, st.batches);
  EXPECT_GE(st.max_batch, 1u);

  // A restarted RI rebuilt from the store agrees on every outcome.
  DeterministicRng rng2(0x5AFF);
  ri::RightsIssuer ri2("ri.example", "http://ri.example/roap", *ca_,
                       kValidity, counting_, rng2);
  ASSERT_TRUE(ri2.bind_store(backing).ok());
  for (const auto& d : devices) {
    EXPECT_TRUE(ri2.is_registered(d->agent.device_id()));
  }
  const ri::Domain* red2 = ri2.domain("domain:red");
  ASSERT_NE(red2, nullptr);
  EXPECT_EQ(red2->members, red->members);
  EXPECT_EQ(red2->generation, red->generation);
}

// ---------------------------------------------------------------------------
// GroupCommitStore in isolation
// ---------------------------------------------------------------------------

TEST(GroupCommitStore, ConcurrentCommittersAllLandExactlyOnce) {
  store::MemoryStore backing;
  store::GroupCommitStore gc(backing);

  constexpr int kThreads = 8;
  constexpr int kTxPerThread = 25;
  StartGate gate(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      gate.arrive_and_wait();
      for (int k = 0; k < kTxPerThread; ++k) {
        store::Transaction tx;
        const std::string key =
            "t" + std::to_string(t) + "/k" + std::to_string(k);
        tx.put(key, Bytes{static_cast<std::uint8_t>(t),
                          static_cast<std::uint8_t>(k)});
        if (!gc.commit(tx).ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(backing.record_count(),
            static_cast<std::size_t>(kThreads * kTxPerThread));
  const auto st = gc.stats();
  EXPECT_EQ(st.committed_txs,
            static_cast<std::uint64_t>(kThreads * kTxPerThread));
  EXPECT_GE(st.committed_txs, st.batches);
  EXPECT_GE(st.batches, 1u);
  EXPECT_GE(st.max_batch, 1u);
  // One backing commit per batch — generation counts batches, and the
  // merged image round-trips every record.
  EXPECT_EQ(backing.generation(), st.batches);
  auto records = gc.load();
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), static_cast<std::size_t>(kThreads * kTxPerThread));
}

TEST(GroupCommitStore, RefusedBackingCommitFailsTheBatchTruthfully) {
  store::MemoryStore backing;
  store::GroupCommitStore gc(backing);

  backing.fail_next_commits(1);
  store::Transaction doomed;
  doomed.put("doomed", Bytes{1});
  EXPECT_FALSE(gc.commit(doomed).ok());
  EXPECT_EQ(backing.record_count(), 0u);
  EXPECT_EQ(gc.stats().committed_txs, 0u);

  // The store heals; the retry lands normally.
  store::Transaction retry;
  retry.put("doomed", Bytes{2});
  ASSERT_TRUE(gc.commit(retry).ok());
  EXPECT_EQ(backing.record_count(), 1u);
  EXPECT_EQ(gc.stats().committed_txs, 1u);
}

TEST(GroupCommitStore, InjectedLeaderFailureReachesEveryBatchedWaiter) {
  // The truthfulness contract under fault injection: when the LEADER's
  // backing commit fails (the store.group_commit.commit failpoint, armed
  // to fail every batch), every thread whose transaction was merged into
  // that batch — leader and parked waiters alike — observes the failure.
  // Nobody is falsely acknowledged, and a rebuild of the backing store
  // agrees: nothing landed.
  store::MemoryStore backing;
  store::GroupCommitStore gc(backing);
  failpoint::arm("store.group_commit.commit", "error-every-1");

  constexpr int kThreads = 8;
  StartGate gate(kThreads);
  std::atomic<int> failed{0}, acked{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      gate.arrive_and_wait();
      store::Transaction tx;
      tx.put("w" + std::to_string(t), Bytes{static_cast<std::uint8_t>(t)});
      const Result<> r = gc.commit(tx);
      if (r.ok()) {
        ++acked;
      } else {
        EXPECT_EQ(r.code(), StatusCode::kStoreFailure);
        ++failed;
      }
    });
  }
  for (auto& th : threads) th.join();
  failpoint::reset_all();

  EXPECT_EQ(acked.load(), 0) << "a waiter was acknowledged for a batch the "
                                "backing store never committed";
  EXPECT_EQ(failed.load(), kThreads);
  EXPECT_EQ(gc.stats().committed_txs, 0u);
  // The rebuild agrees with the refusals: untouched image.
  EXPECT_EQ(backing.generation(), 0u);
  EXPECT_EQ(backing.record_count(), 0u);
  auto records = gc.load();
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());

  // Disarmed, the same traffic lands: the failure mode was injected, not
  // latent.
  store::Transaction tx;
  tx.put("healed", Bytes{1});
  ASSERT_TRUE(gc.commit(tx).ok());
  EXPECT_EQ(backing.record_count(), 1u);
}

TEST_F(ConcurrentRi, ConcurrentHellosReserveUniqueSessions) {
  // Raw DeviceHello storm: every reservation must come back distinct
  // (the atomic lease counter), and every pending session must be
  // sweepable afterwards.
  constexpr int kDevices = 6;
  std::vector<std::unique_ptr<Device>> devices;
  for (int i = 0; i < kDevices; ++i) {
    devices.push_back(std::make_unique<Device>(
        "device-hello-" + std::to_string(i), *ca_, 0xC0 + i));
  }
  StartGate gate(kDevices);
  std::vector<std::string> session_ids(kDevices);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kDevices; ++i) {
    threads.emplace_back([&, i] {
      agent::RegistrationSession reg(devices[i]->agent, kNow);
      auto hello = reg.hello();
      if (!hello.ok()) {
        ++failures;
        return;
      }
      gate.arrive_and_wait();
      const roap::Envelope ri_hello = ri_->handle(*hello, kNow);
      session_ids[i] = ri_hello.open<roap::RiHello>().session_id;
    });
  }
  for (auto& t : threads) t.join();

  ASSERT_EQ(failures.load(), 0);
  std::set<std::string> unique(session_ids.begin(), session_ids.end());
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kDevices));
  EXPECT_EQ(ri_->pending_session_count(), static_cast<std::size_t>(kDevices));
  EXPECT_EQ(ri_->expire_pending_sessions(kNow + ri::kPendingSessionTtl + 1),
            static_cast<std::size_t>(kDevices));
  EXPECT_EQ(ri_->pending_session_count(), 0u);
}

// ---------------------------------------------------------------------------
// One key's shared form under concurrent use
// ---------------------------------------------------------------------------

TEST(KeyForm, ConcurrentUseOfOneKeyAgrees) {
  // Every RI worker signs with the one RI key, and a device key is
  // verified from two shards' workers: copies of one key share its
  // contexts, and on an IFMA host their first dual exponentiation builds
  // the kernel's form of p and q under racing callers.
  DeterministicRng rng(0xC75);
  const rsa::PrivateKey source = rsa::generate_key(512, rng);
  const rsa::PrivateKey priv = source;
  const rsa::PublicKey pub = source.public_key();
  const bigint::BigInt m =
      bigint::BigInt::random_below(rsa::os2ip(pub.n()), rng);
  const bigint::BigInt c = rsa::rsaep(source.public_key(), m);

  constexpr int kThreads = 4;
  StartGate gate(kThreads);
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      gate.arrive_and_wait();
      for (int k = 0; k < 8; ++k) {
        if (!(rsa::rsaep(pub, m) == c) || !(rsa::rsadp(priv, c) == m)) {
          ++wrong;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace omadrm
