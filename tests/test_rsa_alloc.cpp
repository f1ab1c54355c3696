// Heap allocations on the RSA path, counted by a replacement global
// operator new (this test binary only). rsadp and rsaep allocate
// nothing, and pss_sign, pss_verify and kem_decapsulate at most the
// buffer they return.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/random.h"
#include "rsa/kem.h"
#include "rsa/pss.h"
#include "rsa/rsa.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace omadrm::rsa {
namespace {

constexpr int kCalls = 20;

// Allocations per call of `fn` over kCalls calls, after two warm-up
// calls.
template <typename Fn>
double allocs_per_call(Fn&& fn) {
  fn();
  fn();
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < kCalls; ++i) fn();
  return static_cast<double>(g_allocs.load(std::memory_order_relaxed) -
                             before) /
         kCalls;
}

PrivateKey test_key(std::size_t bits) {
  DeterministicRng rng(0xA110C + bits);
  return generate_key(bits, rng);
}

TEST(RsaAllocations, PrimitivesAllocateNothing) {
  for (std::size_t bits : {512u, 1024u}) {
    const PrivateKey key = test_key(bits);
    const PublicKey pub = key.public_key();
    const std::size_t k = key.byte_length();
    Bytes m(k, 0), c(k), back(k);
    m[k - 1] = 42;
    EXPECT_EQ(allocs_per_call([&] { rsaep(pub, m, c); }), 0.0) << bits;
    EXPECT_EQ(allocs_per_call([&] { rsadp(key, c, back); }), 0.0) << bits;
    EXPECT_EQ(back, m);

    const PrivateKey plain(key.public_key(), key.d());
    EXPECT_EQ(allocs_per_call([&] { rsadp(plain, c, back); }), 0.0) << bits;
    EXPECT_EQ(back, m);
  }
}

TEST(RsaAllocations, SchemesAllocateOnlyTheirResult) {
  for (std::size_t bits : {512u, 1024u}) {
    const PrivateKey key = test_key(bits);
    const PublicKey pub = key.public_key();
    DeterministicRng rng(7);
    const Bytes message = rng.bytes(300);
    Bytes signature;
    EXPECT_LE(allocs_per_call([&] { signature = pss_sign(key, message, rng); }),
              1.0)
        << bits;
    bool ok = false;
    EXPECT_LE(
        allocs_per_call([&] { ok = pss_verify(pub, message, signature); }),
        1.0)
        << bits;
    EXPECT_TRUE(ok);

    const KemEncapsulation enc = kem_encapsulate(pub, rng);
    Bytes kek;
    EXPECT_LE(allocs_per_call([&] { kek = kem_decapsulate(key, enc.c1); }),
              1.0)
        << bits;
    EXPECT_EQ(kek, enc.kek);
  }
}

}  // namespace
}  // namespace omadrm::rsa
