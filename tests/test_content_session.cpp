// Tests for the streaming content path: the fused CBC cores and
// CbcDecryptStream (crypto layer), and ContentSession / open_content
// (agent layer) — equivalence with the one-shot path across sizes and
// chunk granularities, padding/truncation rejection, and session
// reuse/reset semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "agent/drm_agent.h"
#include "ci/content_issuer.h"
#include "common/error.h"
#include "common/random.h"
#include "crypto/aes.h"
#include "crypto/modes.h"
#include "dcf/dcf.h"
#include "dcf/dcf_reader.h"
#include "pki/authority.h"
#include "provider/provider.h"
#include "ri/rights_issuer.h"
#include "roap/transport.h"

namespace omadrm {
namespace {

using crypto::Aes;
using crypto::CbcDecryptStream;

// ---------------------------------------------------------------------------
// Crypto layer: streaming vs one-shot equivalence
// ---------------------------------------------------------------------------

/// Drains `stream` with chunk sizes drawn from `rng` (including 1-byte
/// and unaligned chunks) and returns the concatenated plaintext.
Bytes drain_random_chunks(CbcDecryptStream& stream, DeterministicRng& rng) {
  static constexpr std::size_t kChunks[] = {1, 2, 3, 5, 7, 15, 16, 17,
                                            31, 33, 64, 333, 4096};
  Bytes out;
  Bytes buf(4096);
  for (;;) {
    const std::size_t want =
        kChunks[rng.bytes(1)[0] % (sizeof kChunks / sizeof kChunks[0])];
    const std::size_t n = stream.read(std::span(buf.data(), want));
    if (n == 0) break;
    out.insert(out.end(), buf.begin(),
               buf.begin() + static_cast<std::ptrdiff_t>(n));
  }
  EXPECT_TRUE(stream.done());
  return out;
}

TEST(CbcStream, MatchesOneShotAcrossSizesAndChunks) {
  DeterministicRng rng(0x57AE);
  const Bytes key = rng.bytes(16);
  const Bytes iv = rng.bytes(16);
  const Aes aes(key);

  // Payload sizes sweeping 0..3 blocks beyond several block boundaries,
  // plus every offset within a block near the origin.
  std::vector<std::size_t> sizes;
  for (std::size_t base : {std::size_t{0}, std::size_t{1024},
                           std::size_t{65536}}) {
    for (std::size_t delta = 0; delta <= 48;
         delta += (base == 0 ? 1 : 7)) {
      sizes.push_back(base + delta);
    }
  }

  for (std::size_t size : sizes) {
    const Bytes plaintext = rng.bytes(size);
    const Bytes ciphertext = crypto::aes_cbc_encrypt(key, iv, plaintext);
    const Bytes oneshot = crypto::aes_cbc_decrypt(key, iv, ciphertext);
    ASSERT_EQ(oneshot, plaintext) << "one-shot round trip, size " << size;

    CbcDecryptStream stream(aes, iv, ciphertext);
    EXPECT_EQ(drain_random_chunks(stream, rng), plaintext)
        << "streamed, size " << size;

    // rewind() replays the identical plaintext.
    stream.rewind();
    EXPECT_FALSE(size > 0 && stream.done());
    EXPECT_EQ(drain_random_chunks(stream, rng), plaintext)
        << "rewound, size " << size;
  }
}

// Fixed read sizes that split the 16-block groups of the VAES kernel
// (and the 4-block groups of AES-NI) at every phase: each read must carry
// the chain into the next, on the host schedule and the T-table one.
TEST(CbcStream, FixedReadSizesSplitBlockGroupsAndCarryTheChain) {
  DeterministicRng rng(0x5717);
  const Bytes key = rng.bytes(16);
  const Bytes iv = rng.bytes(16);
  const Bytes plaintext = rng.bytes(200003);
  const Bytes ciphertext = crypto::aes_cbc_encrypt(key, iv, plaintext);
  const Aes host(key);
  const Aes table = Aes::portable(key);
  for (const Aes* aes : {&host, &table}) {
    for (std::size_t size : {1u, 15u, 17u, 255u, 4096u, 65536u}) {
      CbcDecryptStream stream(*aes, iv, ciphertext);
      Bytes out;
      Bytes buf(size);
      for (;;) {
        const std::size_t n = stream.read(std::span(buf.data(), size));
        if (n == 0) break;
        out.insert(out.end(), buf.begin(),
                   buf.begin() + static_cast<std::ptrdiff_t>(n));
      }
      EXPECT_TRUE(stream.done());
      EXPECT_EQ(out, plaintext)
          << size << "-byte reads, accel " << aes->has_accel();
    }
  }
}

TEST(CbcStream, SingleByteReads) {
  DeterministicRng rng(0x1B17);
  const Bytes key = rng.bytes(16);
  const Bytes iv = rng.bytes(16);
  const Bytes plaintext = rng.bytes(100);
  const Bytes ciphertext = crypto::aes_cbc_encrypt(key, iv, plaintext);
  const Aes aes(key);
  CbcDecryptStream stream(aes, iv, ciphertext);
  Bytes out;
  std::uint8_t byte;
  while (stream.read(std::span(&byte, 1)) == 1) out.push_back(byte);
  EXPECT_EQ(out, plaintext);
  EXPECT_EQ(stream.read(std::span(&byte, 1)), 0u);  // stays at EOF
}

TEST(CbcStream, EmptyReadIsANoOp) {
  DeterministicRng rng(0xE0);
  const Bytes key = rng.bytes(16);
  const Bytes iv = rng.bytes(16);
  const Bytes ciphertext = crypto::aes_cbc_encrypt(key, iv, rng.bytes(40));
  const Aes aes(key);
  CbcDecryptStream stream(aes, iv, ciphertext);
  EXPECT_EQ(stream.read(std::span<std::uint8_t>()), 0u);
  EXPECT_FALSE(stream.done());
  Bytes buf(64);
  EXPECT_EQ(stream.read(std::span(buf.data(), buf.size())), 40u);
}

TEST(CbcStream, RejectsBadLengthsAtConstruction) {
  DeterministicRng rng(0xBAD);
  const Bytes key = rng.bytes(16);
  const Bytes iv = rng.bytes(16);
  const Aes aes(key);
  EXPECT_THROW(CbcDecryptStream(aes, iv, Bytes{}), Error);
  EXPECT_THROW(CbcDecryptStream(aes, iv, Bytes(17, 0)), Error);
  // A truncated wire (one byte missing) is caught before any decryption.
  Bytes ciphertext = crypto::aes_cbc_encrypt(key, iv, rng.bytes(64));
  ciphertext.pop_back();
  EXPECT_THROW(CbcDecryptStream(aes, iv, ciphertext), Error);
  EXPECT_THROW(CbcDecryptStream(aes, Bytes(8, 0), Bytes(16, 0)), Error);
}

TEST(CbcStream, RejectsTamperedPaddingAtTheFinalBlock) {
  DeterministicRng rng(0x9AD);
  const Bytes key = rng.bytes(16);
  const Bytes iv = rng.bytes(16);
  const Aes aes(key);

  // Craft raw CBC ciphertexts over hand-padded buffers so the padding
  // byte is deterministic: pad value 0, pad value 17 (> block), and a
  // run that contradicts its own pad byte.
  const Bytes bad_tails[] = {
      Bytes{0x00},              // pad byte zero
      Bytes{0x11},              // pad byte 17 > block size
      Bytes{0x05, 0x02, 0x03},  // claims 3, bytes disagree
  };
  for (const Bytes& tail : bad_tails) {
    Bytes padded = rng.bytes(32 - tail.size());
    padded.insert(padded.end(), tail.begin(), tail.end());
    ASSERT_EQ(padded.size() % Aes::kBlockSize, 0u);
    Bytes ciphertext(padded.size());
    std::uint8_t chain[Aes::kBlockSize];
    std::memcpy(chain, iv.data(), Aes::kBlockSize);
    crypto::cbc_encrypt_blocks(aes, chain, padded.data(), ciphertext.data(),
                               padded.size() / Aes::kBlockSize);

    EXPECT_THROW((void)crypto::aes_cbc_decrypt(key, iv, ciphertext), Error);

    // The stream serves everything ahead of the final block, then throws
    // exactly when the padding must be resolved.
    CbcDecryptStream stream(aes, iv, ciphertext);
    Bytes buf(Aes::kBlockSize);
    EXPECT_THROW(
        {
          while (stream.read(std::span(buf.data(), buf.size())) > 0) {
          }
        },
        Error);
  }
}

TEST(CbcCores, EncryptIntoMatchesOneShotAndSplitRunsChain) {
  DeterministicRng rng(0xF0CC);
  const Bytes key = rng.bytes(16);
  const Bytes iv = rng.bytes(16);
  const Aes aes(key);
  for (std::size_t size : {0u, 1u, 16u, 17u, 4096u, 5000u}) {
    const Bytes plaintext = rng.bytes(size);
    Bytes via_into;
    crypto::aes_cbc_encrypt_into(aes, iv, plaintext, via_into);
    EXPECT_EQ(via_into, crypto::aes_cbc_encrypt(key, iv, plaintext));
    Bytes back;
    crypto::aes_cbc_decrypt_into(aes, iv, via_into, back);
    EXPECT_EQ(back, plaintext);
  }

  // A run processed as two fused calls equals one call: the chain value
  // carries across block runs on both directions.
  const Bytes padded = rng.bytes(160);  // 10 whole blocks, no padding here
  Bytes one(160), two(160);
  std::uint8_t chain_a[16], chain_b[16];
  std::memcpy(chain_a, iv.data(), 16);
  std::memcpy(chain_b, iv.data(), 16);
  crypto::cbc_encrypt_blocks(aes, chain_a, padded.data(), one.data(), 10);
  crypto::cbc_encrypt_blocks(aes, chain_b, padded.data(), two.data(), 3);
  crypto::cbc_encrypt_blocks(aes, chain_b, padded.data() + 48,
                             two.data() + 48, 7);
  EXPECT_EQ(one, two);
  EXPECT_EQ(std::memcmp(chain_a, chain_b, 16), 0);

  Bytes dec_one(160), dec_two(160);
  std::memcpy(chain_a, iv.data(), 16);
  std::memcpy(chain_b, iv.data(), 16);
  crypto::cbc_decrypt_blocks(aes, chain_a, one.data(), dec_one.data(), 10);
  crypto::cbc_decrypt_blocks(aes, chain_b, one.data(), dec_two.data(), 4);
  crypto::cbc_decrypt_blocks(aes, chain_b, one.data() + 64,
                             dec_two.data() + 64, 6);
  EXPECT_EQ(dec_one, padded);
  EXPECT_EQ(dec_two, padded);
  EXPECT_EQ(std::memcmp(chain_a, chain_b, 16), 0);
}

TEST(Pkcs7, UnpadLenMatchesUnpad) {
  Bytes data(32, 0xaa);
  data.back() = 4;
  for (std::size_t i = 28; i < 32; ++i) data[i] = 4;
  EXPECT_EQ(crypto::pkcs7_unpad_len(data, 16), 28u);
  EXPECT_EQ(crypto::pkcs7_unpad(data, 16).size(), 28u);
  data.back() = 0;
  EXPECT_THROW(crypto::pkcs7_unpad_len(data, 16), Error);
}

// ---------------------------------------------------------------------------
// Agent layer: ContentSession semantics
// ---------------------------------------------------------------------------

constexpr std::uint64_t kNow = 1100000000;

class ContentSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<DeterministicRng>(0xC0DE);
    validity_ = {kNow - 86400, kNow + 365 * 86400};
    ca_ = std::make_unique<pki::CertificationAuthority>("Root", 512,
                                                        validity_, *rng_);
    ci_ = std::make_unique<ci::ContentIssuer>(
        "ci", provider::plain_provider(), *rng_);
    ri_ = std::make_unique<ri::RightsIssuer>(
        "ri:cs", "http://ri/roap", *ca_, validity_,
        provider::plain_provider(), *rng_, nullptr, 512);
    device_ = std::make_unique<agent::DrmAgent>(
        "dev:cs", ca_->root_certificate(), provider::plain_provider(), *rng_,
        512);
    device_->provision(
        ca_->issue("dev:cs", device_->public_key(), validity_, *rng_));
    tx_ = std::make_unique<roap::InProcessTransport>(*ri_, kNow);
    ASSERT_TRUE(device_->register_with(*tx_, kNow).ok());
  }

  /// Packages `size` bytes, offers + acquires + installs an RO for it,
  /// and returns the container. `count_limit` 0 = unconstrained.
  dcf::Dcf install_content(const std::string& tag, std::size_t size,
                           std::uint32_t count_limit = 0) {
    content_ = rng_->bytes(size);
    dcf::Headers h;
    h.content_type = "audio/mpeg";
    h.content_id = "cid:" + tag;
    h.rights_issuer_url = ri_->url();
    dcf::Dcf dcf = ci_->package(h, content_);

    ri::LicenseOffer offer;
    offer.ro_id = "ro:" + tag;
    offer.content_id = h.content_id;
    offer.dcf_hash = dcf.hash();
    rel::Permission play;
    play.type = rel::PermissionType::kPlay;
    if (count_limit > 0) play.constraint.count = count_limit;
    offer.permissions = {play};
    offer.kcek = *ci_->kcek_for(h.content_id);
    ri_->add_offer(offer);

    auto acq = device_->acquire_ro(*tx_, "ri:cs", offer.ro_id, kNow);
    EXPECT_TRUE(acq.ok());
    EXPECT_EQ(device_->install_ro(*acq, kNow), agent::AgentStatus::kOk);
    return dcf;
  }

  std::unique_ptr<DeterministicRng> rng_;
  pki::Validity validity_;
  std::unique_ptr<pki::CertificationAuthority> ca_;
  std::unique_ptr<ci::ContentIssuer> ci_;
  std::unique_ptr<ri::RightsIssuer> ri_;
  std::unique_ptr<agent::DrmAgent> device_;
  std::unique_ptr<roap::InProcessTransport> tx_;
  Bytes content_;
};

TEST_F(ContentSessionTest, StreamedReadMatchesConsume) {
  dcf::Dcf dcf = install_content("a", 50000);
  agent::ConsumeResult one_shot =
      device_->consume(dcf, rel::PermissionType::kPlay, kNow);
  ASSERT_EQ(one_shot.status, agent::AgentStatus::kOk);
  ASSERT_EQ(one_shot.content, content_);

  agent::ContentSession s =
      device_->open_content(dcf, rel::PermissionType::kPlay, kNow);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.ro_id(), "ro:a");
  EXPECT_EQ(s.decision(), rel::Decision::kGranted);
  EXPECT_EQ(s.plaintext_size(), 50000u);

  Bytes streamed;
  Bytes chunk(777);  // deliberately unaligned
  std::size_t n;
  while ((n = s.read(std::span(chunk.data(), chunk.size()))) > 0) {
    streamed.insert(streamed.end(), chunk.begin(),
                    chunk.begin() + static_cast<std::ptrdiff_t>(n));
  }
  EXPECT_EQ(streamed, content_);
  EXPECT_EQ(s.bytes_read(), 50000u);
  EXPECT_EQ(s.bytes_remaining(), 0u);
  EXPECT_TRUE(s.ok());
}

TEST_F(ContentSessionTest, ReaderPathMatchesOwnedPath) {
  dcf::Dcf dcf = install_content("b", 12345);
  const Bytes wire = dcf.serialize();
  dcf::DcfReader reader = dcf::DcfReader::parse(wire);
  ASSERT_TRUE(
      std::equal(reader.hash().begin(), reader.hash().end(),
                 dcf.hash().begin(), dcf.hash().end()));

  agent::ContentSession s =
      device_->open_content(reader, rel::PermissionType::kPlay, kNow);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.read_all(), content_);
  EXPECT_TRUE(s.ok());
}

TEST_F(ContentSessionTest, RewindReplaysWithoutNewConsumption) {
  dcf::Dcf dcf = install_content("c", 4000, /*count_limit=*/2);

  agent::ContentSession s =
      device_->open_content(dcf, rel::PermissionType::kPlay, kNow);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.read_all(), content_);

  // Restarting the same granted access: no new REL consumption.
  s.rewind();
  EXPECT_EQ(s.bytes_read(), 0u);
  EXPECT_EQ(s.read_all(), content_);
  EXPECT_EQ(
      *device_->remaining_count("ro:c", rel::PermissionType::kPlay), 1u);

  // A new access is a new open; the budget drains open by open.
  agent::ContentSession s2 =
      device_->open_content(dcf, rel::PermissionType::kPlay, kNow + 1);
  ASSERT_TRUE(s2.ok());
  agent::ContentSession s3 =
      device_->open_content(dcf, rel::PermissionType::kPlay, kNow + 2);
  EXPECT_FALSE(s3.ok());
  EXPECT_EQ(s3.status(), agent::AgentStatus::kPermissionDenied);
  EXPECT_EQ(s3.decision(), rel::Decision::kCountExhausted);
  EXPECT_EQ(s3.read(std::span<std::uint8_t>()), 0u);
  Bytes buf(16);
  EXPECT_EQ(s3.read(std::span(buf.data(), buf.size())), 0u);
}

TEST_F(ContentSessionTest, MidStreamRewind) {
  dcf::Dcf dcf = install_content("d", 10000);
  agent::ContentSession s =
      device_->open_content(dcf, rel::PermissionType::kPlay, kNow);
  ASSERT_TRUE(s.ok());
  Bytes chunk(1000);
  ASSERT_EQ(s.read(std::span(chunk.data(), chunk.size())), 1000u);
  s.rewind();
  EXPECT_EQ(s.read_all(), content_);
}

TEST_F(ContentSessionTest, DeniedPermission) {
  dcf::Dcf dcf = install_content("e", 1000);

  // Wrong permission: the RO only grants play.
  agent::ContentSession denied =
      device_->open_content(dcf, rel::PermissionType::kPrint, kNow);
  EXPECT_FALSE(denied.ok());
  EXPECT_EQ(denied.status(), agent::AgentStatus::kPermissionDenied);
  EXPECT_EQ(denied.decision(), rel::Decision::kNoSuchPermission);
}

TEST_F(ContentSessionTest, TamperedContainerFailsBinding) {
  dcf::Dcf dcf = install_content("f", 2000);
  Bytes wire = dcf.serialize();
  wire[wire.size() / 2] ^= 1;  // flip one payload bit
  dcf::DcfReader tampered = dcf::DcfReader::parse(wire);
  agent::ContentSession s =
      device_->open_content(tampered, rel::PermissionType::kPlay, kNow);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status(), agent::AgentStatus::kDcfHashMismatch);
}

TEST_F(ContentSessionTest, SessionKeepsItsScheduleAcrossMoves) {
  dcf::Dcf dcf = install_content("g", 8192);
  agent::ContentSession s =
      device_->open_content(dcf, rel::PermissionType::kPlay, kNow);
  ASSERT_TRUE(s.ok());
  // The session owns its schedule: moving it keeps the stream's borrow.
  agent::ContentSession moved = std::move(s);
  EXPECT_EQ(moved.read_all(), content_);
}

TEST_F(ContentSessionTest, NotInstalledContent) {
  Bytes content = rng_->bytes(100);
  dcf::Headers h;
  h.content_type = "audio/mpeg";
  h.content_id = "cid:never-licensed";
  h.rights_issuer_url = ri_->url();
  dcf::Dcf dcf = ci_->package(h, content);
  agent::ContentSession s =
      device_->open_content(dcf, rel::PermissionType::kPlay, kNow);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status(), agent::AgentStatus::kNotInstalled);
}

}  // namespace
}  // namespace omadrm
