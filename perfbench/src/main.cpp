// usecase_bench: the paper's Table-1 use cases (registration, RO
// acquisition, Music Player 3.5 MB, Ringtone 30 KB) as closed-loop
// workloads, with end-to-end metrics in the untraced run and an
// outside-in per-layer breakdown in the traced run.
//
// Usage:
//   usecase_bench --workload acquire|register|music|ringtone --seed N
//                 --seconds S --trace 0|1 --state-dir DIR
//                 [--ri-server PATH]
//
// Prints one line of host facts, then, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}. Exits 1 when
// any op or end-of-run check fails verification, 2 on bad arguments or a
// failed set-up.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "measure.h"
#include "trace.h"
#include "workload.h"

namespace {

using namespace perfbench;  // NOLINT

// Set-up runs this many times per untraced run; setup_s is the median.
// The timed window uses the last fixture.
constexpr std::size_t kSetupReps = 3;
// Reference-kernel runs after each set-up, to scale setup_s.
constexpr std::size_t kSetupReferenceSamples = 21;

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},       {"ops_per_s", "1/s"},     {"op_ms_p50", "ms"},
    {"ok_ratio", "ratio"},  {"cpu_ms_per_op", "ms"},  {"mb_per_s", "MB/s"},
};

std::vector<Metric> per_layer_metrics() {
  static std::vector<std::string> storage;  // keeps generated names alive
  std::vector<Metric> m = {
      {"dcf.parse.ms_per_op", "ms"},
      {"content.open.ms_per_op", "ms"},
      {"content.read.ms_per_op", "ms"},
      {"content.read.calls_per_op", "count"},
      {"crypto.agent.aes_cbc_bytes_per_op", "bytes"},
      {"crypto.agent.sha1_bytes_per_op", "bytes"},
      {"rel.burns_per_op", "count"},
      {"store.commit.ms_per_op", "ms"},
      {"store.commits_per_op", "count"},
      {"store.backing_commits_per_op", "count"},
  };
  if (storage.empty()) {
    for (const char* side : {"agent", "ri"}) {
      for (const char* fn : {"pss_sign", "pss_verify", "kem_encapsulate",
                             "kem_decapsulate", "aes_wrap", "aes_unwrap",
                             "hmac_sha1", "hmac_verify", "sha1", "kdf2"}) {
        for (const char* what : {"ms_per_op", "calls_per_op"}) {
          storage.push_back(std::string("crypto.") + side + "." + fn + "." + what);
        }
      }
    }
  }
  for (const std::string& name : storage) {
    m.push_back({name.c_str(), name.ends_with("ms_per_op") ? "ms" : "count"});
  }
  const Metric tail[] = {
      {"ri.handle.ms_per_op", "ms"},
      {"roap.request.ms_per_op", "ms"},
      {"roap.requests_per_op", "count"},
      {"roap.codec.ms_per_op", "ms"},
      {"net.rtt_ms_p50", "ms"},
      {"net.rtt_ms_p99", "ms"},
      {"net.attempts_per_op", "count"},
      {"net.server_busy", "count"},
      {"net.reconnects", "count"},
      {"net.transport_errors", "count"},
      {"ri_server.cpu_ms_per_op", "ms"},
      {"op_ms_p95", "ms"},
      {"agent.call.ms_per_op", "ms"},
      {"agent.self.ms_per_op", "ms"},
      {"host.steal_ratio", "ratio"},
      {"host.slowdown", "ratio"},
      {"trace.overhead_ratio", "ratio"},
  };
  m.insert(m.end(), std::begin(tail), std::end(tail));
  return m;
}

using Factory = std::unique_ptr<Workload> (*)(const FixtureOptions&);

Factory factory_for(const std::string& name) {
  static const std::map<std::string, Factory> kFactories = {
      {"acquire", make_acquire},
      {"register", make_register},
      {"music", make_music},
      {"ringtone", make_ringtone},
  };
  auto it = kFactories.find(name);
  return it == kFactories.end() ? nullptr : it->second;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string state_dir;
  std::string ri_server = PERFBENCH_RI_SERVER;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') a.seconds = 0;
    } else if (flag == "--trace") {
      a.trace = std::strcmp(value, "0") == 0 ? 0 : std::strcmp(value, "1") == 0 ? 1 : -1;
    } else if (flag == "--state-dir") {
      a.state_dir = value;
    } else if (flag == "--ri-server") {
      a.ri_server = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && factory_for(a.workload) != nullptr && have_seed &&
         a.seconds >= 1 && a.seconds <= 600 && a.trace >= 0 &&
         !a.state_dir.empty();
}

double ref_ops_per_s(const Slice& s) { return s.ref_ops / s.seconds; }
double raw_ops_per_s(const Slice& s) { return static_cast<double>(s.ops) / s.seconds; }
double slowdown(const Slice& s) { return s.ref_ops / static_cast<double>(s.ops); }

/// Median over a window's slices of `field`.
template <typename Field>
double slice_median(const Window& win, Field field) {
  std::vector<double> v;
  for (const Slice& s : win.slices) v.push_back(field(s));
  return quantile(v, 0.5);
}

std::string fresh_dir(const Args& a, const char* tag, std::size_t rep) {
  const std::string dir =
      a.state_dir + "/" + a.workload + "-" + tag + "-" + std::to_string(rep);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Everything one invocation reports.
struct Report {
  bool correct = true;
  std::string why;  // every failed check, for stderr
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;  // metric name -> value
  const Window* last = nullptr;          // the window the diagnostics show
  double server_cpu_ms_per_op = 0;
};

class Runner {
 public:
  explicit Runner(const Args& args)
      : args_(args), make_(factory_for(args.workload)) {}

  /// Set-up kSetupReps times (setup_s is the median), then one timed
  /// window of --seconds on the last fixture.
  void untraced(Report& r) {
    std::vector<double> setup_s;
    std::unique_ptr<Workload> w;
    for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
      if (w) finish(*w, r);
      w.reset();
      const Clock::time_point t0 = Clock::now();
      w = build("plain", rep, false);
      const double seconds = seconds_since(t0);
      setup_s.push_back(seconds / host_slowdown(kSetupReferenceSamples));
    }
    const Window& win = drive(*w, args_.seconds, false, r);
    finish(*w, r);
    r.values["setup_s"] = quantile(setup_s, 0.5);
    r.values["ops_per_s"] = slice_median(win, ref_ops_per_s);
    r.values["op_ms_p50"] = quantile(win.latency_ref_ms, 0.50);
    r.values["ok_ratio"] =
        win.attempted ? static_cast<double>(win.attempted - win.failed) /
                            static_cast<double>(win.attempted)
                      : 0;
    r.values["cpu_ms_per_op"] = slice_median(
        win, [](const Slice& s) { return s.cpu_ms / s.ref_ops; });
    r.values["mb_per_s"] = slice_median(
        win, [](const Slice& s) { return s.ref_bytes / 1e6 / s.seconds; });
  }

  /// An untraced window on plain objects for half of --seconds, then a
  /// traced window on a fixture built with the decorators for the other
  /// half; the ops/s difference is the tracing overhead.
  void traced(Report& r) {
    const double half = args_.seconds / 2;
    double plain_ops_per_s = 0;
    {
      std::unique_ptr<Workload> w = build("plain", kTimedRep, false);
      const Window& win = drive(*w, half, false, r);
      finish(*w, r);
      plain_ops_per_s = slice_median(win, ref_ops_per_s);
      r.values["op_ms_p95"] = quantile(win.latency_ref_ms, 0.95);
      r.values["ri_server.cpu_ms_per_op"] = r.server_cpu_ms_per_op;
    }
    std::unique_ptr<Workload> w = build("traced", kTimedRep, true);
    const bool networked = w->server_pid() >= 0;
    w->mark();
    const Window& win = drive(*w, half, true, r);
    const double ops = static_cast<double>(win.attempted);
    w->layer_counters(r.values, ops);
    finish(*w, r);

    const trace::Summary summary = trace::summarize(ops);
    for (const auto& [name, v] : summary.metrics) r.values.emplace(name, v);
    if (networked) {
      r.values["net.rtt_ms_p50"] = quantile(summary.roap_request_ms, 0.50);
      r.values["net.rtt_ms_p99"] = quantile(summary.roap_request_ms, 0.99);
    }
    if (summary.accounting_violations != 0) {
      fail(r, std::to_string(summary.accounting_violations) +
                  " trace spans do not nest in their parents");
    }
    const double traced_ops_per_s = slice_median(win, ref_ops_per_s);
    r.values["trace.overhead_ratio"] =
        plain_ops_per_s > 0 ? 1.0 - traced_ops_per_s / plain_ops_per_s : 0;
    r.values["host.steal_ratio"] = win.steal_ratio;
    r.values["host.slowdown"] = slice_median(win, slowdown);
    const std::string spans = args_.state_dir + "/spans-" + args_.workload + ".tsv";
    if (!trace::write_spans(spans)) fail(r, "could not write " + spans);
    trace::reset();
  }

  /// Removes every fixture directory this invocation created.
  void clean() const {
    for (const char* tag : {"plain", "traced"}) {
      for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
        std::filesystem::remove_all(args_.state_dir + "/" + args_.workload +
                                    "-" + tag + "-" + std::to_string(rep));
      }
    }
  }

 private:
  static constexpr std::size_t kTimedRep = kSetupReps - 1;

  static void fail(Report& r, const std::string& why) {
    r.correct = false;
    r.why += why + "; ";
  }

  std::unique_ptr<Workload> build(const char* tag, std::size_t rep,
                                  bool traced) const {
    FixtureOptions o;
    o.seed = args_.seed;
    o.rep = rep;
    o.traced = traced;
    o.state_dir = fresh_dir(args_, tag, rep);
    o.ri_server = args_.ri_server;
    return make_(o);
  }

  /// Runs one timed window and folds its op counts into the report.
  const Window& drive(Workload& w, double seconds, bool traced, Report& r) {
    WindowConfig c;
    c.threads = w.threads();
    c.seconds = seconds;
    c.slices = std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(seconds)));
    c.server_pid = w.server_pid();
    c.traced = traced;
    windows_.push_back(run_window(
        c, [&w](std::size_t t, std::uint64_t& bytes) { return w.op(t, bytes); }));
    const Window& win = windows_.back();
    r.attempted += win.attempted;
    r.failed += win.failed;
    if (win.failed != 0) fail(r, std::to_string(win.failed) + " ops failed verification");
    if (!win.server_clock_ok) fail(r, "server CPU clock unreadable");
    r.server_cpu_ms_per_op = slice_median(
        win, [](const Slice& s) { return s.server_cpu_ms / s.ops; });
    r.last = &win;
    return win;
  }

  static void finish(Workload& w, Report& r) {
    std::string why;
    if (!w.finish(why)) fail(r, why);
  }

  const Args& args_;
  Factory make_;
  std::deque<Window> windows_;  // stable addresses for Report::last
};

void print_result(const Report& report, const std::vector<Metric>& table) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < table.size(); ++i) {
    auto it = report.values.find(table[i].name);
    double v = it == report.values.end() ? 0 : it->second;
    if (!std::isfinite(v)) v = 0;
    char num[64];
    std::snprintf(num, sizeof num, "%.10g", v);
    out += std::string(i ? ", " : "") + "\"" + table[i].name +
           "\": {\"value\": " + num + ", \"unit\": \"" + table[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::string join(const std::vector<double>& v) {
  std::string s;
  for (double x : v) s += (s.empty() ? "" : ", ") + std::to_string(x);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload acquire|register|music|ringtone "
                 "--seed N --seconds S --trace 0|1 --state-dir DIR "
                 "[--ri-server PATH]\n",
                 argv[0]);
    return 2;
  }
  std::printf("{\"host\": %s, \"workload\": \"%s\", \"seed\": %llu}\n",
              host_facts_json(kAcquireServerWorkers).c_str(), args.workload.c_str(),
              static_cast<unsigned long long>(args.seed));

  Runner runner(args);
  Report report;
  try {
    if (args.trace == 0) {
      runner.untraced(report);
    } else {
      runner.traced(report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "usecase_bench: set-up failed: %s\n", e.what());
    runner.clean();
    return 2;
  }
  runner.clean();

  // Diagnostics: the last window as measured, before any slowdown is
  // applied, with the host's per-slice slowdown and steal.
  const Window& win = *report.last;
  auto column = [&win](double (*field)(const Slice&)) {
    std::vector<double> v;
    for (const Slice& sl : win.slices) v.push_back(field(sl));
    return v;
  };
  std::printf(
      "{\"window\": {\"raw_ops_per_s\": %.6f, \"raw_op_ms_p50\": %.6f, "
      "\"raw_cpu_ms_per_op\": %.6f, \"ri_server.cpu_ms_per_op\": %.6f, "
      "\"host.steal_ratio\": %.6f, \"slice_ops_per_s\": [%s], "
      "\"slice_slowdown\": [%s], \"slice_steal_ratio\": [%s]}}\n",
      slice_median(win, raw_ops_per_s), quantile(win.latency_ms, 0.5),
      slice_median(win, [](const Slice& s) { return s.cpu_ms / static_cast<double>(s.ops); }),
      report.server_cpu_ms_per_op, win.steal_ratio,
      join(column(raw_ops_per_s)).c_str(), join(column(slowdown)).c_str(),
      join(column([](const Slice& s) { return s.steal_ratio; })).c_str());
  if (!report.correct) {
    std::fprintf(stderr, "usecase_bench: FAILED: %s\n", report.why.c_str());
  }
  if (args.trace == 0) {
    print_result(report, {std::begin(kEndToEnd), std::end(kEndToEnd)});
  } else {
    print_result(report, per_layer_metrics());
  }
  return report.correct ? 0 : 1;
}
