// Clocks, host facts and the closed-loop window runner shared by every
// workload.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

/// User + system CPU seconds of this process, summed over its threads.
double self_cpu_seconds();
/// CPU seconds of another process read from its CPU-time clock; negative
/// when the clock cannot be read.
double process_cpu_seconds(pid_t pid);

/// Aggregate jiffies from the "cpu" line of /proc/stat.
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
HostTicks host_ticks();
/// Share of all CPU time between two samples that the hypervisor stole.
double steal_ratio(const HostTicks& from, const HostTicks& to);

/// One JSON object with nproc, CPU model, the crypto-relevant CPU flags,
/// the build type and the ri_server worker count.
std::string host_facts_json(std::size_t server_workers);

/// Linear-interpolated quantile of `values` (q in [0,1]); 0 when empty.
double quantile(std::vector<double> values, double q);

/// Time of one run of the benchmark-owned reference kernel, in ms.
///
/// The kernel is a fixed, throughput-bound integer loop over a 64 KiB
/// table; it calls nothing in the program. Its time tracks how fast the
/// host currently runs ALU-bound code on this vCPU, which on a shared host
/// swings by up to 2x within seconds as another tenant's hyperthread
/// comes and goes (a latency-bound loop does not move, so it is not clock
/// frequency). kReferenceKernelMs is its time on an uncontended vCPU of
/// the host the bounds were set on (Xeon, 2.0 GHz nominal).
double reference_kernel_ms();
inline constexpr double kReferenceKernelMs = 0.080;

/// Median reference-kernel time over `samples` runs ÷ kReferenceKernelMs:
/// 1 on an uncontended vCPU, 2 when the host runs such code at half speed.
double host_slowdown(std::size_t samples);

/// One closed-loop op on `thread`. Returns false when the op's output
/// failed verification; adds the payload bytes it delivered to `bytes`.
using OpFn = std::function<bool(std::size_t thread, std::uint64_t& bytes)>;

struct WindowConfig {
  std::size_t threads = 1;
  double seconds = 1;
  std::size_t slices = 1;
  pid_t server_pid = -1;   // sampled for server CPU when >= 0
  bool traced = false;     // attach each worker thread to a trace recorder
};

/// One slice of a window. Each op is also counted weighted by the host
/// slowdown measured around it: the median of its thread's reference
/// runs (every 100 ms) just before, at and after its start, ÷
/// kReferenceKernelMs. Weighted counts give rates at reference speed.
struct Slice {
  double seconds = 0;
  std::uint64_t ops = 0;     // ops that ended in the slice
  double ref_ops = 0;        // the same ops, each weighted by its slowdown
  double ref_bytes = 0;      // their payload bytes, weighted likewise
  double cpu_ms = 0;         // this process's CPU over the slice
  double server_cpu_ms = 0;  // the server's CPU over the slice; 0 without
  double steal_ratio = 0;
};

/// What one timed window measured. Slices with no completed op are left
/// out.
struct Window {
  std::uint64_t attempted = 0;  // ops started before the deadline
  std::uint64_t failed = 0;     // ops whose verification failed
  std::vector<double> latency_ms;  // ops that ended inside the window
  /// The same latencies, each divided by the op's slowdown.
  std::vector<double> latency_ref_ms;
  std::vector<Slice> slices;
  double steal_ratio = 0;
  bool server_clock_ok = true;
};

/// Runs `op` in a closed loop on `config.threads` worker threads for
/// `config.seconds`, while the calling thread samples CPU clocks and
/// /proc/stat at every slice boundary.
Window run_window(const WindowConfig& config, const OpFn& op);

}  // namespace perfbench
