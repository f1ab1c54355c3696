#include "workload.h"

#include "ri/rights_issuer.h"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::size_t rep,
                          std::uint64_t stream) {
  // splitmix64 over the three inputs: distinct (seed, rep, stream)
  // triples give unrelated streams.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (rep + 1) +
                    0xD1B54A32D192ED03ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

omadrm::provider::CryptoProvider* provider_for(
    std::optional<trace::TracedProvider>& slot, bool traced,
    std::string_view side) {
  if (!traced) return &omadrm::provider::plain_provider();
  return &slot.emplace(omadrm::provider::plain_provider(), side);
}

omadrm::roap::Envelope WireTransport::request(
    const omadrm::roap::Envelope& request) {
  omadrm::roap::Envelope in;
  {
    trace::Scope s(trace::kRoapCodec);
    in = omadrm::roap::Envelope::from_wire(request.wire());
  }
  omadrm::roap::Envelope reply;
  {
    trace::Scope s(trace::kRiHandle);
    reply = ri_.handle(in, now_);
  }
  wire_bytes_ += request.size() + reply.size();
  trace::Scope s(trace::kRoapCodec);
  return omadrm::roap::Envelope::from_wire(reply.wire());
}

StoreChain::StoreChain(const std::string& directory,
                       const omadrm::Bytes& storage_key, bool group_commit,
                       bool traced)
    : file_(directory, storage_key,
            omadrm::store::FileStore::Options{.durable_fsync = false}) {
  omadrm::store::StateStore* s = &file_;
  if (traced) {
    backing_traced_ = std::make_unique<trace::TracedStore>(*s, trace::kStoreBacking);
    s = backing_traced_.get();
  }
  if (group_commit) {
    group_ = std::make_unique<omadrm::store::GroupCommitStore>(*s);
    s = group_.get();
  }
  if (traced) {
    front_traced_ = std::make_unique<trace::TracedStore>(*s, trace::kStoreCommit);
    s = front_traced_.get();
  }
  front_ = s;
}

}  // namespace perfbench
