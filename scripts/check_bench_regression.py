#!/usr/bin/env python3
"""Gate on checked-in benchmark baselines.

Handles both benchmark families by dispatching on the JSON's "bench"
field:

  roap_session   gates on the multi_agent block's exchanges/s (one
                 thread driving N agents round-robin through the
                 in-process RI; the least noisy of that bench's outputs
                 on shared CI runners) and on the
                 per_stage_us.pss_sign latency (an RSA-1024 CRT
                 private-key op); the bench reports both as the best of
                 several blocks. Both gates apply only when both
                 documents carry the same "mont_accel" config value: RSA
                 signing is a large share of every exchange, so a
                 BMI2/ADX baseline against a portable-kernel runner
                 would gate on the CPU, not the code (the skip reason is
                 printed). Before either, and whatever the back end, it
                 fails unless the current document's
                 multi_agent.ctx_builds is 0: every RSA key owns its
                 Montgomery context, so acquisitions by registered
                 agents build none, for 8 agents (--quick) as for 64.
                 Likewise registration.warm_ctx_builds must be 0: a
                 repeat registration reuses the certificates both ends
                 already hold instead of decoding them again. Also
                 before the back-end check, allocs_per_exchange of the
                 cached acquisitions and of the multi_agent block may not
                 exceed the baseline's (a count, the same on every host),
                 and chain_walk.allocs_per_walk, the heap allocations of
                 one cold walk of the 2-link RI chain, may not exceed an
                 absolute ceiling (CHAIN_WALK_ALLOC_CEILING): a walk reads
                 the TBS bytes each certificate keeps, and one that
                 re-encoded them would allocate hundreds of times.
  dcf_stream     gates on streaming decrypt MB/s at the largest payload
                 size present in BOTH documents (quick CI runs omit the
                 16 MiB point the full baseline carries), and on SHA-1
                 MB/s at that same size when both documents carry the
                 same "shani" config value (a SHA-NI baseline against a
                 portable-path runner would gate on the CPU, not the
                 code; the skip reason is printed).
  state_store    gates on the buffered FileStore p50 commit latency,
                 expressed as a rate (1e6 / commit_us_p50). The sealed
                 journal + counter path every constraint burn rides;
                 wall-clock commits/s swings 2x with machine load while
                 the p50 stays within a few percent, and the fsync-on
                 figure is disk hardware, so both only print.
  net_fleet      gates on exchanges/s through the framed-TCP server at
                 the largest agent count present in BOTH documents
                 (quick CI runs only measure the 8-agent point the full
                 baseline also carries), and — when both documents carry
                 an exchanges_per_s_vs_workers sweep — additionally on
                 the largest shared worker count of that sweep, so a
                 regression that only shows up multi-worker (a new
                 serialization point in the sharded RI) cannot hide
                 behind a healthy aggregate number. Also fails outright
                 when the current run saw transport errors, server
                 refusals, or an unclean server drain — those are
                 correctness, not noise. The "overload" section (the
                 throttled-server busy-shed sweep) is exempt from the
                 zero-refusal sum — sheds there are the point — and is
                 gated separately: sessions_failed must be 0 and sheds
                 nonzero (correctness: admission control engaged and
                 stayed retriable), and the acquisition p99 through the
                 busy-retry storm must stay under 3x the baseline's —
                 a deliberately loose absolute sanity bound, because
                 tail latency under a 98% shed rate is mostly backoff
                 scheduling, which jitters with runner load.

Latency-style fields are printed for context but only throughput gates.
Both documents' "host" blocks are printed beside the throughput lines,
so a floor failure shows which machines are being compared (printed
only; nothing gates on them).

Every gate runs and prints its verdict before the exit status is
settled, and a failing run ends with one line naming every gate that
failed, so one run shows all of them.

Usage: check_bench_regression.py BASELINE.json CURRENT.json [--tolerance 0.25]
       check_bench_regression.py --self-test

`--self-test` runs the roap_session gates on seeded documents and exits
0 when each passes or fails as it must and names the gates it failed (a
document failing two gates must name both), 1 otherwise.
"""

import argparse
import contextlib
import copy
import io
import json
import os
import sys
import tempfile


def roap_throughput(doc: dict) -> tuple[float, str, str]:
    value = float(doc["multi_agent"]["exchanges_per_s"])
    label = (f"round-robin throughput, 1 thread "
             f"({doc['multi_agent']['agents']} agents)")
    return value, label, "exch/s"


def dcf_throughput(doc: dict, payload_bytes: int) -> tuple[float, str, str]:
    entry = next(s for s in doc["sizes"]
                 if s["payload_bytes"] == payload_bytes)
    label = f"stream decrypt ({payload_bytes // 1024} KiB payload)"
    return float(entry["stream_decrypt_mbps"]), label, "MB/s"


def check_dcf_sha1(baseline: dict, current: dict, payload_bytes: int,
                   tolerance: float) -> bool:
    """Secondary dcf_stream gate: container SHA-1 MB/s at `payload_bytes`,
    only when both documents ran the same SHA-1 back end. Returns False
    on a regression beyond tolerance."""
    base_ni = baseline.get("config", {}).get("shani")
    cur_ni = current.get("config", {}).get("shani")
    if base_ni is None or base_ni != cur_ni:
        print(f"sha1 gate skipped: baseline shani={base_ni} but current "
              f"shani={cur_ni} (not the same SHA-1 back end)")
        return True

    def sha1_mbps(doc: dict) -> float:
        return float(next(s for s in doc["sizes"]
                          if s["payload_bytes"] == payload_bytes)["sha1_mbps"])

    base = sha1_mbps(baseline)
    cur = sha1_mbps(current)
    floor = base * (1.0 - tolerance)
    label = f"sha1 ({payload_bytes // 1024} KiB payload, shani={cur_ni})"
    print(f"baseline {label}: {base:10.1f} MB/s")
    print(f"current  {label}: {cur:10.1f} MB/s")
    print(f"floor (-{tolerance:.0%}): {floor:10.1f} MB/s")
    if cur < floor:
        print(f"FAIL: SHA-1 throughput regressed more than {tolerance:.0%} "
              f"vs the checked-in baseline", file=sys.stderr)
        return False
    return True


# roap_session counts that must be 0: (section, key, what a non-zero means).
ROAP_ZERO_CTX_BUILDS = (
    ("multi_agent", "ctx_builds",
     "multi_agent acquisitions built Montgomery contexts; every key must "
     "reuse its own"),
    ("registration", "warm_ctx_builds",
     "the warm re-registration built Montgomery contexts; both ends must "
     "reuse the certificates they already hold"),
)


def check_roap_ctx_builds(current: dict) -> bool:
    """roap_session correctness gate: the multi_agent acquisitions and the
    warm re-registration built no Montgomery context. A missing key fails
    too."""
    ok = True
    for section, key, meaning in ROAP_ZERO_CTX_BUILDS:
        builds = current.get(section, {}).get(key)
        if builds is None:
            print(f"FAIL: current document has no {section}.{key}",
                  file=sys.stderr)
            ok = False
            continue
        print(f"{section}.{key} Montgomery contexts built: {builds}")
        if builds != 0:
            print(f"FAIL: {meaning}", file=sys.stderr)
            ok = False
    return ok


# roap_session allocation counts capped at the baseline's:
# (section path, label).
ROAP_ALLOC_CEILINGS = (
    (("ro_acquisition", "cached"), "cached acquisition"),
    (("multi_agent",), "multi_agent acquisition"),
)


def check_roap_allocs(baseline: dict, current: dict) -> bool:
    """roap_session gate: allocs_per_exchange may not exceed the
    baseline's. Heap allocations per exchange do not depend on the host
    or the Montgomery back end, so this runs whatever the back end; a
    current document without the key fails."""
    ok = True
    for path, label in ROAP_ALLOC_CEILINGS:
        base, cur = baseline, current
        for key in path:
            base = base.get(key, {})
            cur = cur.get(key, {})
        base_allocs = base.get("allocs_per_exchange")
        cur_allocs = cur.get("allocs_per_exchange")
        if cur_allocs is None:
            print(f"FAIL: current document has no "
                  f"{'.'.join(path)}.allocs_per_exchange", file=sys.stderr)
            ok = False
            continue
        if base_allocs is None:
            print(f"{label}: baseline has no allocs_per_exchange; "
                  f"ceiling skipped")
            continue
        print(f"{label} allocs/exchange: {float(cur_allocs):.1f} "
              f"(ceiling {float(base_allocs):.1f})")
        if float(cur_allocs) > float(base_allocs):
            print(f"FAIL: {label} allocates more per exchange than the "
                  f"checked-in baseline", file=sys.stderr)
            ok = False
    return ok


# Heap allocations one cold walk of the bench's 2-link RI chain may make:
# a copy of each link's serial for the verdict, and the verdict's list.
CHAIN_WALK_ALLOC_CEILING = 3.0


def check_roap_chain_walk_allocs(current: dict) -> bool:
    """roap_session gate: chain_walk.allocs_per_walk stays at or under
    CHAIN_WALK_ALLOC_CEILING. A count, the same on every host, so it runs
    whatever the back end; a current document without the key fails."""
    allocs = current.get("chain_walk", {}).get("allocs_per_walk")
    if allocs is None:
        print("FAIL: current document has no chain_walk.allocs_per_walk",
              file=sys.stderr)
        return False
    print(f"chain walk allocs/walk: {float(allocs):.1f} "
          f"(ceiling {CHAIN_WALK_ALLOC_CEILING:.1f})")
    if float(allocs) > CHAIN_WALK_ALLOC_CEILING:
        print("FAIL: a chain walk allocates more than its ceiling; each "
              "link's check must read the TBS bytes its certificate keeps",
              file=sys.stderr)
        return False
    return True


def same_mont_backend(baseline: dict, current: dict) -> bool:
    """True when both roap_session documents ran the same Montgomery
    back end; otherwise prints why the roap_session gates are skipped."""
    base_accel = baseline.get("config", {}).get("mont_accel")
    cur_accel = current.get("config", {}).get("mont_accel")
    if base_accel is None or base_accel != cur_accel:
        print(f"roap_session gates skipped: baseline mont_accel={base_accel} "
              f"but current mont_accel={cur_accel} (not the same Montgomery "
              f"back end)")
        return False
    return True


def check_roap_pss_sign(baseline: dict, current: dict,
                        tolerance: float) -> bool:
    """Secondary roap_session gate: per_stage_us.pss_sign must not grow
    by more than `tolerance`. Returns False on a regression."""
    cur_accel = current["config"]["mont_accel"]
    base = float(baseline["per_stage_us"]["pss_sign"])
    cur = float(current["per_stage_us"]["pss_sign"])
    ceiling = base * (1.0 + tolerance)
    label = f"pss_sign (mont_accel={cur_accel})"
    print(f"baseline {label}: {base:10.1f} us")
    print(f"current  {label}: {cur:10.1f} us")
    print(f"ceiling (+{tolerance:.0%}): {ceiling:10.1f} us")
    if cur > ceiling:
        print(f"FAIL: pss_sign latency regressed more than {tolerance:.0%} "
              f"vs the checked-in baseline", file=sys.stderr)
        return False
    return True


def store_throughput(doc: dict) -> tuple[float, str, str]:
    value = 1e6 / float(doc["file_buffered"]["commit_us_p50"])
    return value, "buffered store commit rate (1/p50)", "commits/s"


def net_throughput(doc: dict, agents: int) -> tuple[float, str, str]:
    entry = next(s for s in doc["scales"] if s["agents"] == agents)
    label = f"fleet throughput over TCP ({agents} agents)"
    return float(entry["exchanges_per_s"]), label, "exch/s"


def net_worker_throughput(doc: dict, workers: int) -> float:
    entry = next(p for p in doc["exchanges_per_s_vs_workers"]
                 if p["workers"] == workers)
    return float(entry["exchanges_per_s"])


def check_net_worker_sweep(baseline: dict, current: dict,
                           tolerance: float) -> bool:
    """Secondary net_fleet gate: exchanges/s at the largest worker count
    measured in BOTH documents' exchanges_per_s_vs_workers sweeps.
    Returns False on a regression beyond tolerance. Documents predating
    the sweep (or with disjoint worker counts) skip the gate."""
    base_sweep = baseline.get("exchanges_per_s_vs_workers")
    cur_sweep = current.get("exchanges_per_s_vs_workers")
    if not base_sweep or not cur_sweep:
        return True
    shared = (set(p["workers"] for p in base_sweep) &
              set(p["workers"] for p in cur_sweep))
    if not shared:
        return True
    workers = max(shared)
    base = net_worker_throughput(baseline, workers)
    cur = net_worker_throughput(current, workers)
    floor = base * (1.0 - tolerance)
    print(f"baseline worker-sweep throughput ({workers} workers): "
          f"{base:10.1f} exch/s")
    print(f"current  worker-sweep throughput ({workers} workers): "
          f"{cur:10.1f} exch/s")
    print(f"floor (-{tolerance:.0%}): {floor:10.1f} exch/s")
    if cur < floor:
        print(f"FAIL: {workers}-worker throughput regressed more than "
              f"{tolerance:.0%} vs the checked-in baseline",
              file=sys.stderr)
        return False
    return True


def check_net_overload(baseline: dict, current: dict) -> bool:
    """Gate the net_fleet overload section. Correctness first: the
    throttled server must have shed (admission control engaged) and no
    session may have failed outright (sheds stayed retriable). Then, when
    the baseline also carries an overload section, the busy-storm
    acquisition p99 gets a loose 3x absolute headroom bound. Documents
    without the section (pre-overload baselines) skip cleanly."""
    ov = current.get("overload")
    if ov is None:
        return True
    ok = True
    sheds = int(ov.get("sheds", 0))
    failed = int(ov.get("sessions_failed", 0))
    print(f"overload: {ov.get('agents')} agents vs "
          f"{ov.get('server_workers')} worker(s), queue depth "
          f"{ov.get('max_queue_depth')}: {sheds} sheds "
          f"(rate {float(ov.get('shed_rate', 0)):.1%}), "
          f"{failed} failed sessions, "
          f"p50 {ov.get('acquisition_ms_p50')} ms, "
          f"p99 {ov.get('acquisition_ms_p99')} ms")
    if failed != 0:
        print(f"FAIL: overload: {failed} session(s) failed outright — "
              f"busy sheds must stay retriable", file=sys.stderr)
        ok = False
    if sheds == 0:
        print("FAIL: overload: throttled server never shed — admission "
              "control did not engage", file=sys.stderr)
        ok = False
    base_ov = baseline.get("overload")
    base_p99 = (base_ov or {}).get("acquisition_ms_p99")
    cur_p99 = ov.get("acquisition_ms_p99")
    if base_p99 and cur_p99:
        bound = float(base_p99) * 3.0
        print(f"overload p99 bound (3x baseline): {bound:.1f} ms")
        if float(cur_p99) > bound:
            print(f"FAIL: overload acquisition p99 {cur_p99} ms exceeds "
                  f"3x the baseline's {base_p99} ms", file=sys.stderr)
            ok = False
    return ok


def check(baseline_path: str, current_path: str, tolerance: float) -> int:
    """Gates CURRENT against BASELINE; returns the exit status. Every gate
    runs and prints its verdict before the exit status is settled, so one
    run shows every failure."""
    with open(baseline_path) as f:
        baseline = json.load(f)
    with open(current_path) as f:
        current = json.load(f)

    kind = current.get("bench", "roap_session")
    if baseline.get("bench", "roap_session") != kind:
        print(f"FAIL: baseline is {baseline.get('bench')!r} but current is "
              f"{kind!r}", file=sys.stderr)
        return 1

    failed = []

    def gate(name: str, passed: bool) -> None:
        if not passed:
            failed.append(name)

    throughput = None  # (base, base_label, cur, cur_label, unit)
    if kind == "dcf_stream":
        shared = (set(s["payload_bytes"] for s in baseline["sizes"]) &
                  set(s["payload_bytes"] for s in current["sizes"]))
        if not shared:
            print("FAIL: no payload size measured in both documents",
                  file=sys.stderr)
            return 1
        dcf_payload = max(shared)
        base, base_label, unit = dcf_throughput(baseline, dcf_payload)
        cur, cur_label, _ = dcf_throughput(current, dcf_payload)
        throughput = (base, base_label, cur, cur_label, unit)
    elif kind == "state_store":
        base, base_label, unit = store_throughput(baseline)
        cur, cur_label, _ = store_throughput(current)
        throughput = (base, base_label, cur, cur_label, unit)
    elif kind == "net_fleet":
        clean = current.get("server_clean_exit", False)
        if not clean:
            print("FAIL: server did not drain cleanly on SIGTERM",
                  file=sys.stderr)
        gate("server drain", clean)
        errors = sum(int(s.get("transport_errors", 0)) +
                     int(s.get("server_refusals", 0))
                     for s in (current["scales"] +
                               current.get("exchanges_per_s_vs_workers", [])))
        if errors:
            print(f"FAIL: {errors} transport errors / server refusals on a "
                  f"quiet loopback", file=sys.stderr)
        gate("transport errors", errors == 0)
        shared = (set(s["agents"] for s in baseline["scales"]) &
                  set(s["agents"] for s in current["scales"]))
        if shared:
            base, base_label, unit = net_throughput(baseline, max(shared))
            cur, cur_label, _ = net_throughput(current, max(shared))
            throughput = (base, base_label, cur, cur_label, unit)
        else:
            print("FAIL: no agent count measured in both documents",
                  file=sys.stderr)
            gate("agent count", False)
    else:
        gate("ctx_builds", check_roap_ctx_builds(current))
        gate("allocs_per_exchange", check_roap_allocs(baseline, current))
        gate("chain_walk allocs",
             check_roap_chain_walk_allocs(current))
        if same_mont_backend(baseline, current):
            base, base_label, unit = roap_throughput(baseline)
            cur, cur_label, _ = roap_throughput(current)
            throughput = (base, base_label, cur, cur_label, unit)

    if throughput is not None:
        base, base_label, cur, cur_label, unit = throughput
        floor = base * (1.0 - tolerance)
        print(f"baseline {base_label}: {base:10.1f} {unit}")
        print(f"current  {cur_label}: {cur:10.1f} {unit}")
        print(f"floor (-{tolerance:.0%}): {floor:10.1f} {unit}")
        for name, doc in (("baseline", baseline), ("current ", current)):
            if "host" in doc:
                print(f"{name} host: "
                      f"{json.dumps(doc['host'], sort_keys=True)}")
        print_context(kind, current)
        if cur < floor:
            print(f"FAIL: throughput regressed more than "
                  f"{tolerance:.0%} vs the checked-in baseline",
                  file=sys.stderr)
        gate("throughput", cur >= floor)
        if kind == "roap_session":
            gate("pss_sign", check_roap_pss_sign(baseline, current,
                                                 tolerance))
        elif kind == "dcf_stream":
            gate("sha1", check_dcf_sha1(baseline, current, dcf_payload,
                                        tolerance))
    if kind == "net_fleet":
        gate("worker sweep",
             check_net_worker_sweep(baseline, current, tolerance))
        gate("overload", check_net_overload(baseline, current))

    if failed:
        print(f"FAIL: {len(failed)} gate(s) failed: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    print("OK")
    return 0


def print_context(kind: str, current: dict) -> None:
    """Prints the current document's latency-style fields (not gated)."""
    if kind == "dcf_stream":
        largest = max(current["sizes"], key=lambda s: s["payload_bytes"])
        print(f"current open latency: {largest.get('open_us')} us, "
              f"{largest.get('open_allocs')} allocs/open, "
              f"{largest.get('read_allocs_per_drain')} allocs/drain")
    elif kind == "state_store":
        durable = current.get("file_durable", {})
        agent = current.get("agent", {})
        print(f"current durable (fsync) commits: "
              f"{durable.get('commits_per_s')} commits/s "
              f"(p50 {durable.get('commit_us_p50')} us); "
              f"crash-safe burn overhead {agent.get('overhead_us')} "
              f"us/grant")
    elif kind == "net_fleet":
        peak = max(current["scales"], key=lambda s: s["agents"])
        print(f"current peak scale ({peak['agents']} agents): "
              f"p50 {peak.get('acquisition_ms_p50')} ms, "
              f"p95 {peak.get('acquisition_ms_p95')} ms, "
              f"p99 {peak.get('acquisition_ms_p99')} ms, "
              f"{peak.get('reconnects')} reconnects")
    else:
        cached = current.get("ro_acquisition", {}).get("cached", {})
        if cached:
            print(f"current cached acquisition: {cached.get('full_ms_avg')} "
                  f"ms (p50 {cached.get('full_ms_p50')}, "
                  f"p95 {cached.get('full_ms_p95')}), "
                  f"{cached.get('allocs_per_exchange')} allocs/exchange")


# A roap_session baseline in the shape of the checked-in BENCH_roap.json,
# including keys the bench no longer writes (uncached_crypto,
# chain_hits/chain_misses): the gates must not depend on them.
SELF_TEST_BASELINE = {
    "bench": "roap_session",
    "config": {"mont_accel": True},
    "host": {"nproc": 4},
    "registration": {"warm_ctx_builds": 0},
    "ro_acquisition": {
        "cached": {"full_ms_avg": 0.25, "allocs_per_exchange": 56.0},
        "uncached_crypto": {"full_ms_avg": 0.32, "verify_path_ms_avg": 0.05},
        "speedup_crypto_caches": 1.3,
        "speedup_verify_path": 3.6,
    },
    "per_stage_us": {"pss_sign": 53.0},
    "multi_agent": {"agents": 64, "exchanges_per_s": 5000.0,
                    "allocs_per_exchange": 56.0, "ctx_builds": 0},
    "cache_stats": {"ctx_builds": 0, "chain_hits": 10, "chain_misses": 1},
}


def self_test_current() -> dict:
    """A passing current document as the bench writes it now."""
    doc = copy.deepcopy(SELF_TEST_BASELINE)
    del doc["ro_acquisition"]["uncached_crypto"]
    del doc["ro_acquisition"]["speedup_crypto_caches"]
    del doc["ro_acquisition"]["speedup_verify_path"]
    doc["cache_stats"] = {"ctx_builds": 0}
    doc["per_stage_us"]["chain_walk"] = 33.0
    doc["ro_acquisition"]["cached"]["allocs_per_exchange"] = 54.0
    doc["multi_agent"]["allocs_per_exchange"] = 54.0
    doc["chain_walk"] = {"allocs_per_walk": CHAIN_WALK_ALLOC_CEILING}
    return doc


def self_test() -> list[str]:
    """Runs check() on seeded documents; returns the cases that did not
    end as they must."""
    no_ctx_builds = self_test_current()
    del no_ctx_builds["multi_agent"]["ctx_builds"]
    over_ceiling = self_test_current()
    over_ceiling["multi_agent"]["allocs_per_exchange"] = 57.0
    walk_over_ceiling = self_test_current()
    walk_over_ceiling["chain_walk"]["allocs_per_walk"] = (
        CHAIN_WALK_ALLOC_CEILING + 1)
    no_walk_allocs = self_test_current()
    del no_walk_allocs["chain_walk"]
    # Fails a count gate checked first and the timing gate checked last:
    # both must be reported, not just the first.
    two_gates = self_test_current()
    two_gates["multi_agent"]["allocs_per_exchange"] = 57.0
    two_gates["per_stage_us"]["pss_sign"] = 53.0 * 2
    # (what, document, exit status, failed gates the summary must name)
    cases = (
        ("a current document without multi_agent.ctx_builds",
         no_ctx_builds, 1, ["ctx_builds"]),
        ("multi_agent.allocs_per_exchange over the baseline's",
         over_ceiling, 1, ["allocs_per_exchange"]),
        ("chain_walk.allocs_per_walk over its ceiling",
         walk_over_ceiling, 1, ["chain_walk allocs"]),
        ("a current document without chain_walk.allocs_per_walk",
         no_walk_allocs, 1, ["chain_walk allocs"]),
        ("allocs_per_exchange and pss_sign both over their ceilings",
         two_gates, 1, ["allocs_per_exchange", "pss_sign"]),
        ("a current document without the deleted uncached_crypto and "
         "chain_* keys", self_test_current(), 0, []),
    )
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        baseline_path = os.path.join(tmp, "baseline.json")
        with open(baseline_path, "w") as f:
            json.dump(SELF_TEST_BASELINE, f)
        for what, doc, want, want_failed in cases:
            current_path = os.path.join(tmp, "current.json")
            with open(current_path, "w") as f:
                json.dump(doc, f)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(out):
                got = check(baseline_path, current_path, 0.25)
            summary = [line for line in out.getvalue().splitlines()
                       if "gate(s) failed:" in line]
            got_failed = (summary[0].split("gate(s) failed: ")[1].split(", ")
                          if summary else [])
            if got != want or got_failed != want_failed:
                errors.append(f"{what}: exit {got} failing {got_failed}, "
                              f"expected {want} failing {want_failed}\n"
                              f"{out.getvalue()}")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("current", nargs="?")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional regression (default 0.25)")
    ap.add_argument("--self-test", action="store_true",
                    help="check the roap_session gates on seeded documents")
    args = ap.parse_args()

    if args.self_test:
        errors = self_test()
        for e in errors:
            print(f"self-test FAILED: {e}", file=sys.stderr)
        if errors:
            return 1
        print("check_bench_regression self-test: OK")
        return 0
    if args.baseline is None or args.current is None:
        ap.error("BASELINE and CURRENT are required without --self-test")
    return check(args.baseline, args.current, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
