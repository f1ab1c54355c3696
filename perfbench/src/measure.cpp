#include "measure.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "trace.h"

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

namespace {

double clock_seconds(clockid_t id) {
  timespec ts{};
  if (::clock_gettime(id, &ts) != 0) return -1;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

double self_cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

double process_cpu_seconds(pid_t pid) {
  clockid_t id;
  if (::clock_getcpuclockid(pid, &id) != 0) return -1;
  return clock_seconds(id);
}

HostTicks host_ticks() {
  HostTicks t;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest fields are
  // already folded into user/nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_ratio(const HostTicks& from, const HostTicks& to) {
  if (to.total <= from.total) return 0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

std::string host_facts_json(std::size_t server_workers) {
  std::string model = "unknown";
  std::string flags;
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    key.erase(key.find_last_not_of(" \t") + 1);
    std::string value = colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && model == "unknown") model = value;
    if (key == "flags" && flags.empty()) flags = " " + value + " ";
  }
  std::ostringstream os;
  os << "{\"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"cpu_model\": \"" << json_escape(model) << "\", \"cpu_flags\": {";
  const char* wanted[] = {"aes", "sha_ni", "adx", "bmi2", "avx2"};
  for (std::size_t i = 0; i < std::size(wanted); ++i) {
    const bool has =
        flags.find(std::string(" ") + wanted[i] + " ") != std::string::npos;
    os << (i ? ", " : "") << '"' << wanted[i] << "\": "
       << (has ? "true" : "false");
  }
  os << "}, \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"ri_server_workers\": " << server_workers << "}";
  return os.str();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double reference_kernel_ms() {
  static thread_local std::uint32_t table[16384];
  const Clock::time_point t0 = Clock::now();
  std::uint64_t lane[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (std::uint64_t i = 0; i < 5000; ++i) {
    for (std::uint64_t& x : lane) {
      x = x * 0x9E3779B97F4A7C15ull + i;
      x ^= std::rotl(x, 23) + table[(x >> 7) & 16383];
      table[(x >> 29) & 16383] += static_cast<std::uint32_t>(x);
    }
  }
  static std::atomic<std::uint64_t> sink;
  sink.store(lane[0] ^ lane[7], std::memory_order_relaxed);
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double host_slowdown(std::size_t samples) {
  std::vector<double> v;
  for (std::size_t i = 0; i < samples; ++i) v.push_back(reference_kernel_ms());
  return quantile(v, 0.5) / kReferenceKernelMs;
}

Window run_window(const WindowConfig& config, const OpFn& op) {
  struct OpRecord {
    double end_s;  // completion, seconds after the window start
    double latency_ms;
    std::uint64_t bytes;
    std::size_t reference;  // index of the thread's latest reference run
  };
  struct Worker {
    std::vector<OpRecord> records;
    std::vector<double> reference_ms;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    trace::Recorder* recorder = nullptr;
  };
  constexpr auto kReferenceEvery = std::chrono::milliseconds(100);

  const std::size_t n = config.threads;
  std::vector<Worker> workers(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers[i].records.reserve(1 << 16);
    if (config.traced) workers[i].recorder = trace::new_recorder();
  }

  std::atomic<bool> go{false};
  Clock::time_point start;  // written before `go` is released
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(config.seconds));

  auto body = [&](std::size_t idx) {
    Worker& w = workers[idx];
    trace::attach(w.recorder);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    const Clock::time_point deadline = start + window;
    Clock::time_point next_reference = start;
    std::uint64_t seq = 0;
    for (;;) {
      Clock::time_point t0 = Clock::now();
      if (t0 >= deadline) break;
      if (t0 >= next_reference) {
        w.reference_ms.push_back(reference_kernel_ms());
        next_reference = t0 + kReferenceEvery;
        t0 = Clock::now();
      }
      trace::begin_op((static_cast<std::uint64_t>(idx) << 40) | seq++);
      std::uint64_t bytes = 0;
      const bool ok = op(idx, bytes);
      const Clock::time_point t1 = Clock::now();
      ++w.attempted;
      if (!ok) {
        ++w.failed;
        continue;
      }
      w.records.push_back(
          {std::chrono::duration<double>(t1 - start).count(),
           std::chrono::duration<double, std::milli>(t1 - t0).count(), bytes,
           w.reference_ms.size() - 1});
    }
    trace::attach(nullptr);
  };

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) threads.emplace_back(body, i);

  const std::size_t slices = std::max<std::size_t>(1, config.slices);
  std::vector<double> cpu(slices + 1), server_cpu(slices + 1);
  std::vector<HostTicks> ticks(slices + 1);
  ticks[0] = host_ticks();
  start = Clock::now();
  cpu[0] = self_cpu_seconds();
  if (config.server_pid >= 0) server_cpu[0] = process_cpu_seconds(config.server_pid);
  go.store(true, std::memory_order_release);
  for (std::size_t k = 1; k <= slices; ++k) {
    std::this_thread::sleep_until(start + window * k / slices);
    cpu[k] = self_cpu_seconds();
    if (config.server_pid >= 0) {
      server_cpu[k] = process_cpu_seconds(config.server_pid);
    }
    ticks[k] = host_ticks();
  }
  for (std::thread& t : threads) t.join();

  // Sums per slice; every op counts with the slowdown the host showed
  // around it (the median of the thread's reference runs just before,
  // at and just after its start, so one preempted run cannot skew it).
  struct Sums {
    std::uint64_t ops = 0;
    double weighted_ops = 0;    // sum of slowdowns
    double weighted_bytes = 0;  // bytes x slowdown
  };
  const double slice_s = config.seconds / static_cast<double>(slices);
  std::vector<Sums> sums(slices);
  Window out;
  out.steal_ratio = steal_ratio(ticks.front(), ticks.back());
  for (const Worker& w : workers) {
    out.attempted += w.attempted;
    out.failed += w.failed;
    const std::vector<double>& ref = w.reference_ms;
    for (const OpRecord& r : w.records) {
      const auto k = static_cast<std::size_t>(r.end_s / slice_s);
      if (k >= slices) continue;  // finished after the deadline
      const std::size_t i = r.reference;
      const double slowdown =
          quantile({ref[i > 0 ? i - 1 : i], ref[i], ref[i + 1 < ref.size() ? i + 1 : i]},
                   0.5) /
          kReferenceKernelMs;
      Sums& s = sums[k];
      ++s.ops;
      s.weighted_ops += slowdown;
      s.weighted_bytes += static_cast<double>(r.bytes) * slowdown;
      out.latency_ms.push_back(r.latency_ms);
      out.latency_ref_ms.push_back(r.latency_ms / slowdown);
    }
  }
  for (std::size_t k = 0; k < slices; ++k) {
    const Sums& s = sums[k];
    if (s.ops == 0) continue;
    Slice sl;
    sl.seconds = slice_s;
    sl.ops = s.ops;
    sl.ref_ops = s.weighted_ops;
    sl.ref_bytes = s.weighted_bytes;
    sl.cpu_ms = (cpu[k + 1] - cpu[k]) * 1e3;
    sl.steal_ratio = steal_ratio(ticks[k], ticks[k + 1]);
    if (config.server_pid >= 0) {
      if (server_cpu[k] < 0 || server_cpu[k + 1] < 0) out.server_clock_ok = false;
      sl.server_cpu_ms = (server_cpu[k + 1] - server_cpu[k]) * 1e3;
    }
    out.slices.push_back(sl);
  }
  return out;
}

}  // namespace perfbench
