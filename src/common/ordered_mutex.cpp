// Runtime half of the lock-order validator (common/ordered_mutex.h).
//
// Per-thread held-lock stack with captured acquisition backtraces. Kept
// deliberately allocation-free (fixed-size array, backtrace into
// preallocated frames) so it is safe under every sanitizer and inside
// any lock in the tree, including the failpoint registry's.
//
// Always compiled, even in Release: only the OrderedMutex *alias* is
// build-type dependent, so tests/test_lock_order.cpp can death-test the
// checked variant in any build.
#include "common/ordered_mutex.h"

#include <execinfo.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

namespace omadrm::lockorder {

namespace {

constexpr int kMaxFrames = 32;
// Deepest real chain is 4 (shard → meta → store.front → store.backing,
// plus a failpoint); 16 leaves headroom for tests.
constexpr int kMaxHeld = 16;

struct Held {
  const void* mtx = nullptr;
  std::uint16_t rank = 0;
  const char* name = nullptr;
  void* frames[kMaxFrames];
  int frame_count = 0;
};

struct HeldStack {
  Held entries[kMaxHeld];
  int depth = 0;
};

thread_local HeldStack t_held;

[[noreturn]] void die(const Held& held, std::uint16_t rank, const char* name,
                      const char* what) {
  // Raw fds + backtrace_symbols_fd: no allocation, no locks — this must
  // work from inside an arbitrary lock acquisition on a wedged thread.
  std::fprintf(stderr,
               "lock-order violation (%s): acquiring \"%s\" (rank %u) while "
               "already holding \"%s\" (rank %u)\n",
               what, name, static_cast<unsigned>(rank), held.name,
               static_cast<unsigned>(held.rank));
  std::fprintf(stderr, "held lock \"%s\" was acquired at:\n", held.name);
  std::fflush(stderr);
  ::backtrace_symbols_fd(const_cast<void* const*>(held.frames),
                         held.frame_count, STDERR_FILENO);
  std::fprintf(stderr, "offending acquisition of \"%s\" at:\n", name);
  std::fflush(stderr);
  void* frames[kMaxFrames];
  int n = ::backtrace(frames, kMaxFrames);
  ::backtrace_symbols_fd(frames, n, STDERR_FILENO);
  std::abort();
}

}  // namespace

void note_acquire(const void* mtx, std::uint16_t rank, const char* name) {
  HeldStack& s = t_held;
  for (int i = 0; i < s.depth; ++i) {
    const Held& h = s.entries[i];
    if (h.mtx == mtx) die(h, rank, name, "recursive acquisition");
    if (h.rank == rank) die(h, rank, name, "two of a kind");
    if (h.rank > rank) die(h, rank, name, "rank inversion");
  }
  if (s.depth >= kMaxHeld) {
    std::fprintf(stderr,
                 "lock-order validator: held-lock stack overflow acquiring "
                 "\"%s\" (rank %u) at depth %d\n",
                 name, static_cast<unsigned>(rank), s.depth);
    std::abort();
  }
  Held& h = s.entries[s.depth++];
  h.mtx = mtx;
  h.rank = rank;
  h.name = name;
  h.frame_count = ::backtrace(h.frames, kMaxFrames);
}

void note_release(const void* mtx) {
  HeldStack& s = t_held;
  // Search from the top, but allow mid-stack release: RightsIssuer::persist
  // drops meta_mu_ before the commit on the fast path, and UniqueLock
  // relock patterns release/reacquire around backing commits.
  for (int i = s.depth - 1; i >= 0; --i) {
    if (s.entries[i].mtx != mtx) continue;
    for (int j = i; j + 1 < s.depth; ++j) s.entries[j] = s.entries[j + 1];
    --s.depth;
    return;
  }
  std::fprintf(stderr,
               "lock-order validator: releasing a mutex this thread does not "
               "hold\n");
  std::abort();
}

void check_held(const void* mtx, const char* name) {
  const HeldStack& s = t_held;
  for (int i = 0; i < s.depth; ++i) {
    if (s.entries[i].mtx == mtx) return;
  }
  std::fprintf(stderr,
               "lock-order validator: assert_held(\"%s\") failed — mutex not "
               "held by this thread\n",
               name);
  std::fflush(stderr);
  void* frames[32];
  int n = ::backtrace(frames, 32);
  ::backtrace_symbols_fd(frames, n, STDERR_FILENO);
  std::abort();
}

}  // namespace omadrm::lockorder
