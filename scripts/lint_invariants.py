#!/usr/bin/env python3
"""Repo-invariant linter for the OMA DRM 2 reproduction.

Seven rule classes, each encoding an invariant the test suite cannot see
(tests exercise behavior; these are structural properties of the source):

  failpoint-adjacency  Every raw durability syscall in src/store/ sits
                       next to a failpoint gate (failpoint::fire/check,
                       injected_failure) or carries an explicit
                       `// nofailpoint: <reason>` escape within the
                       4 lines above it. Keeps the crash matrix honest:
                       a new fsync/rename with no failpoint is exactly
                       the durability transition chaos tests can't reach.

  classify-coverage    RetryPolicy::classify() in src/roap/retry.cpp
                       names every StatusCode enumerator explicitly and
                       has no `default:` — the fault table cannot drift
                       when status.h grows a code. (Compile-time twin:
                       -Wswitch on the default-less switch.)

  wire-alloc           Wire-path files (xml parse/serialize, roap
                       envelope, base64, net framing) allocate only
                       through annotated seams: a naked `new`, `malloc(`
                       or `std::to_string(` needs a `// pool:` or
                       `// coldpath:` comment on the line or within the
                       2 lines above. Guards the paper's zero-copy
                       parse-path claim against regression by drive-by
                       edits. Every WIRE_FILES entry must exist, so a
                       rename or deletion cannot quietly narrow the
                       scope.

  mutex-header         No header under src/ declares raw std::mutex /
                       std::shared_mutex / std::condition_variable
                       state: lock-bearing types use OrderedMutex (rank
                       checked, TSA capability) and condition_variable_any,
                       and a header that declares an OrderedMutex member
                       must GUARDED_BY-annotate at least one field.
                       common/ordered_mutex.h + thread_annotations.h are
                       the allowlisted foundations.

  catalog-drift        The literal site names wired through
                       failpoint::fire/check/injected_failure (incl. the
                       ReplaceSites constexpr tables) exactly match
                       failpoint::catalog(). `--fix-catalog` regenerates
                       the catalog from the discovered sites, keeping
                       existing descriptions.

  isa-confinement      x86 intrinsic headers (*mmintrin.h, x86intrin.h),
                       __attribute__((target(...))) and inline asm
                       statements (asm / __asm__) appear only in
                       src/crypto/*_accel.cpp and src/bigint/*_accel.cpp,
                       and every such file has its COMPILE_OPTIONS set in
                       CMakeLists.txt. Keeps ISA-specific code in the
                       units that get the ISA flags and sit behind a
                       cpuid check, so the rest of the library stays
                       portable baseline code.

  one-integer          No file under src/ or bench/ names BigInt or
                       includes bigint/bigint.h, comments included. The
                       library has one integer type, the fixed-width
                       limbs of bigint/limbs.h; the sign-magnitude BigInt
                       lives in tests/oracle/ as the reference the tests
                       compare against, and only the test executables
                       link it.

Exit status: 0 clean, 1 violations (one `path:line: [rule] message` per
finding), 2 usage/internal error. `--self-test` first proves every rule
still fires on seeded violations — CI runs that mode so a regex rot
can't silently turn a rule off.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# --------------------------------------------------------------------------
# Shared helpers
# --------------------------------------------------------------------------


def strip_comment(line: str) -> str:
    """Code portion of a line ( // comments removed, strings blanked)."""
    # Blank string literals first so "// inside a string" survives and
    # site-name literals don't fake syscall matches.
    no_str = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    cut = no_str.find("//")
    return no_str if cut < 0 else no_str[:cut]


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Rule: failpoint-adjacency
# --------------------------------------------------------------------------

# Durability syscalls: the global-namespace spellings the store uses.
SYSCALL_RE = re.compile(r"::(write|pwrite|fsync|fdatasync|rename|ftruncate)\s*\(")
OPEN_RE = re.compile(r"::open\s*\(")
WRITE_OPEN_FLAGS = re.compile(r"O_(WRONLY|RDWR|CREAT|TRUNC|APPEND)")
# Any failpoint:: use counts — fire/check gates, and crash_now/Op in a
# crash branch whose half-write IS the injected fault.
FAILPOINT_NEAR = re.compile(r"failpoint::|injected_failure")
NOFAILPOINT = re.compile(r"//\s*nofailpoint:\s*\S")

# Coverage window around a flagged syscall line (1-based offsets).
FP_ABOVE = 6  # failpoint gate this many lines above ...
FP_BELOW = 4  # ... or below still counts as guarding the syscall.
ESCAPE_REACH = 8  # an escape comment covers its following paragraph


def escape_covered(lines: list[str], marker: re.Pattern) -> set[int]:
    """Indices covered by an escape comment: the marker line itself plus
    the non-blank lines that follow it (its statement paragraph), capped
    at ESCAPE_REACH lines — so one comment covers a multi-line comment
    block plus the multi-syscall statement group under it, but nothing
    past the next blank line."""
    covered: set[int] = set()
    for i, raw in enumerate(lines):
        if not marker.search(raw):
            continue
        covered.add(i)
        for j in range(i + 1, min(len(lines), i + 1 + ESCAPE_REACH)):
            if not lines[j].strip():
                break
            covered.add(j)
    return covered


def check_failpoint_adjacency(path: str, lines: list[str]) -> list[Finding]:
    findings: list[Finding] = []
    escaped = escape_covered(lines, NOFAILPOINT)
    for i, raw in enumerate(lines):
        code = strip_comment(raw)
        hit = SYSCALL_RE.search(code)
        if not hit:
            m = OPEN_RE.search(code)
            if not m:
                continue
            # ::open is only a durability syscall when opened for write;
            # flags may sit on the same or the continuation line.
            flags_region = code[m.end():] + " " + (
                strip_comment(lines[i + 1]) if i + 1 < len(lines) else "")
            if not WRITE_OPEN_FLAGS.search(flags_region):
                continue
            name = "open-for-write"
        else:
            name = hit.group(1)
        lo = max(0, i - FP_ABOVE)
        hi = min(len(lines), i + FP_BELOW + 1)
        window = lines[lo:hi]
        if any(FAILPOINT_NEAR.search(strip_comment(w)) for w in window):
            continue
        if i in escaped:
            continue
        findings.append(Finding(
            path, i + 1, "failpoint-adjacency",
            f"raw ::{name} has no failpoint gate within -{FP_ABOVE}/+{FP_BELOW} "
            f"lines and no `// nofailpoint: <reason>` escape"))
    return findings


# --------------------------------------------------------------------------
# Rule: classify-coverage
# --------------------------------------------------------------------------

ENUMERATOR_RE = re.compile(r"^\s*(k[A-Za-z0-9]+)\s*(?:=\s*[^,]+)?,?\s*(?://.*)?$")


def parse_status_codes(text: str) -> list[str]:
    m = re.search(r"enum\s+class\s+StatusCode[^{]*\{(.*?)\}", text, re.S)
    if not m:
        return []
    names = []
    for line in m.group(1).splitlines():
        e = ENUMERATOR_RE.match(line)
        if e:
            names.append(e.group(1))
    return names


def check_classify_coverage(status_text: str, retry_path: str,
                            retry_text: str) -> list[Finding]:
    findings: list[Finding] = []
    codes = set(parse_status_codes(status_text))
    if not codes:
        return [Finding("src/common/status.h", 1, "classify-coverage",
                        "could not parse enum class StatusCode")]
    m = re.search(r"FaultClass\s+RetryPolicy::classify\s*\([^)]*\)\s*\{(.*?)\n\}",
                  retry_text, re.S)
    if not m:
        return [Finding(retry_path, 1, "classify-coverage",
                        "could not find RetryPolicy::classify()")]
    body = m.group(1)
    body_line = retry_text[:m.start()].count("\n") + 1
    cases = set(re.findall(r"case\s+StatusCode::(k[A-Za-z0-9]+)\s*:", body))
    if re.search(r"^\s*default\s*:", body, re.M):
        findings.append(Finding(
            retry_path, body_line, "classify-coverage",
            "classify() has a `default:` — every StatusCode must be an "
            "explicit case so -Wswitch catches new codes"))
    for missing in sorted(codes - cases):
        findings.append(Finding(
            retry_path, body_line, "classify-coverage",
            f"StatusCode::{missing} is not classified (add it to the "
            f"retriable or terminal case list)"))
    for stale in sorted(cases - codes):
        findings.append(Finding(
            retry_path, body_line, "classify-coverage",
            f"classify() names StatusCode::{stale} which status.h no "
            f"longer declares"))
    return findings


# --------------------------------------------------------------------------
# Rule: wire-alloc
# --------------------------------------------------------------------------

WIRE_FILES = [
    "src/xml/node.cpp", "src/xml/node.h",
    "src/xml/writer.cpp", "src/xml/writer.h",
    "src/xml/arena.cpp", "src/xml/arena.h",
    "src/roap/envelope.cpp", "src/roap/envelope.h",
    "src/common/base64.cpp", "src/common/base64.h",
    "src/net/frame.cpp", "src/net/frame.h",
]

ALLOC_RE = re.compile(r"\bnew\b\s*[\(:A-Za-z_]|\bmalloc\s*\(|std::to_string\s*\(")
ALLOC_ESCAPE = re.compile(r"//\s*(pool|coldpath):")


def check_wire_alloc(path: str, lines: list[str]) -> list[Finding]:
    findings: list[Finding] = []
    escaped = escape_covered(lines, ALLOC_ESCAPE)
    for i, raw in enumerate(lines):
        if raw.lstrip().startswith("#"):
            continue  # #include <new> etc.
        code = strip_comment(raw)
        if not ALLOC_RE.search(code):
            continue
        if i in escaped:
            continue
        findings.append(Finding(
            path, i + 1, "wire-alloc",
            "naked allocation on a wire path — route it through the arena "
            "(`// pool:`) or mark the non-hot path (`// coldpath: <why>`)"))
    return findings


def check_wire_scope(files: dict[str, str],
                     wire_files: list[str]) -> list[Finding]:
    return [Finding(path, 0, "wire-alloc",
                    "listed in WIRE_FILES but not in the tree — update the "
                    "list so the rule keeps covering the wire path")
            for path in wire_files if path not in files]


# --------------------------------------------------------------------------
# Rule: mutex-header
# --------------------------------------------------------------------------

MUTEX_HEADER_ALLOWLIST = {
    "src/common/ordered_mutex.h",      # wraps std::mutex by design
    "src/common/thread_annotations.h", # defines the annotation macros
}

RAW_SYNC_RE = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|condition_variable)\b")
ORDERED_MEMBER_RE = re.compile(r"\bOrdered(?:Shared)?Mutex\s+\w+\s*[{;=]")
GUARDED_RE = re.compile(r"\bGUARDED_BY\s*\(")


def check_mutex_header(path: str, lines: list[str]) -> list[Finding]:
    findings: list[Finding] = []
    text_code = [strip_comment(l) for l in lines]
    for i, code in enumerate(text_code):
        if lines[i].lstrip().startswith("#"):
            continue  # includes of <mutex> / <condition_variable> are fine
        m = RAW_SYNC_RE.search(code)
        if m:
            findings.append(Finding(
                path, i + 1, "mutex-header",
                f"raw std::{m.group(1)} in a public header — use "
                f"OrderedMutex/OrderedSharedMutex (rank-checked, TSA "
                f"capability) or std::condition_variable_any"))
    has_member = any(ORDERED_MEMBER_RE.search(c) for c in text_code)
    has_guard = any(GUARDED_RE.search(l) for l in lines)
    if has_member and not has_guard:
        findings.append(Finding(
            path, 1, "mutex-header",
            "declares an OrderedMutex member but GUARDED_BY-annotates no "
            "field — annotate what the lock protects"))
    return findings


# --------------------------------------------------------------------------
# Rule: catalog-drift (+ --fix-catalog)
# --------------------------------------------------------------------------

SITE_CALL_RE = re.compile(
    r"(?:failpoint::(?:fire|check)|injected_failure)\s*\(\s*\"([^\"]+)\"")
REPLACE_SITES_RE = re.compile(r"constexpr\s+ReplaceSites\s+\w+\s*\{([^}]*)\}", re.S)
CATALOG_ENTRY_RE = re.compile(r"\{\s*\"([^\"]+)\"\s*,\s*((?:\"(?:[^\"\\]|\\.)*\"\s*)+)\}")


def discover_sites(files: dict[str, str]) -> dict[str, str]:
    """site name -> first declaring file, from the real wiring."""
    sites: dict[str, str] = {}
    for path, text in sorted(files.items()):
        if path.endswith("src/common/failpoint.cpp"):
            continue
        for m in SITE_CALL_RE.finditer(text):
            sites.setdefault(m.group(1), path)
        for m in REPLACE_SITES_RE.finditer(text):
            for name in re.findall(r"\"([^\"]+)\"", m.group(1)):
                sites.setdefault(name, path)
    return sites


def parse_catalog(failpoint_text: str) -> tuple[dict[str, str], tuple[int, int]]:
    """catalog site -> raw description source, plus (start, end) of the
    initializer list inside the text (for --fix-catalog rewrites)."""
    m = re.search(
        r"static\s+const\s+std::vector<SiteInfo>\s+sites\s*=\s*\{(.*?)\n\s*\};",
        failpoint_text, re.S)
    if not m:
        return {}, (-1, -1)
    entries = {}
    for e in CATALOG_ENTRY_RE.finditer(m.group(1)):
        entries[e.group(1)] = e.group(2).strip()
    return entries, (m.start(1), m.end(1))


def check_catalog_drift(files: dict[str, str],
                        failpoint_path: str) -> list[Finding]:
    failpoint_text = files.get(failpoint_path, "")
    catalog, span = parse_catalog(failpoint_text)
    if span[0] < 0:
        return [Finding(failpoint_path, 1, "catalog-drift",
                        "could not locate the catalog() sites vector")]
    wired = discover_sites(files)
    findings = []
    cat_line = failpoint_text[:span[0]].count("\n") + 1
    for name in sorted(set(wired) - set(catalog)):
        findings.append(Finding(
            failpoint_path, cat_line, "catalog-drift",
            f"site \"{name}\" is wired in {wired[name]} but missing from "
            f"catalog() — add it or run --fix-catalog"))
    for name in sorted(set(catalog) - set(wired)):
        findings.append(Finding(
            failpoint_path, cat_line, "catalog-drift",
            f"catalog() lists \"{name}\" but no fire/check/injected_failure "
            f"call wires it — dead entry or renamed site"))
    return findings


def fix_catalog(repo: pathlib.Path, files: dict[str, str],
                failpoint_path: str) -> bool:
    """Regenerate catalog() from the discovered sites. Existing
    descriptions survive; new sites get a TODO placeholder; dead entries
    are dropped. Order: existing catalog order for kept sites, then new
    sites sorted. Returns True if the file changed."""
    text = files[failpoint_path]
    catalog, span = parse_catalog(text)
    if span[0] < 0:
        print(f"error: cannot parse catalog() in {failpoint_path}",
              file=sys.stderr)
        return False
    wired = discover_sites(files)
    ordered = [n for n in catalog if n in wired]
    ordered += sorted(n for n in wired if n not in catalog)
    if ordered == list(catalog):
        return False
    chunks = []
    for name in ordered:
        desc = catalog.get(name, f'"TODO: describe (wired in {wired[name]})"')
        entry = f'      {{"{name}",\n       {desc}}},'
        # Short entries fit the one-line form the file already uses.
        one_line = f'      {{"{name}", {desc}}},'
        chunks.append(one_line if len(one_line) <= 78 else entry)
    new_body = "\n" + "\n".join(chunks)
    new_text = text[:span[0]] + new_body + text[span[1]:]
    (repo / failpoint_path).write_text(new_text)
    print(f"rewrote catalog() in {failpoint_path}: "
          f"{len(ordered)} sites ({len(set(wired) - set(catalog))} added, "
          f"{len(set(catalog) - set(wired))} dropped)")
    return True


# --------------------------------------------------------------------------
# Rule: isa-confinement
# --------------------------------------------------------------------------

ISA_ROOTS = ("src", "tools", "bench", "tests", "examples", "perfbench")
ACCEL_FILE_RE = re.compile(r"^src/(crypto|bigint)/\w+_accel\.cpp$")
ISA_RE = re.compile(r"#\s*include\s*<(?:[a-z0-9]*mmintrin|x86intrin)\.h>"
                    r"|__attribute__\s*\(\(\s*target\s*\("
                    r"|\b(?:asm|__asm|__asm__)\b"
                    r"(?:\s+(?:volatile|__volatile__|inline|goto))*\s*\(")
CMAKE_PROPS_RE = re.compile(r"set_source_files_properties\s*\(([^)]*)\)", re.S)


def check_isa_confinement(path: str, lines: list[str]) -> list[Finding]:
    if ACCEL_FILE_RE.match(path):
        return []
    return [Finding(path, i + 1, "isa-confinement",
                    "x86 intrinsics, a target attribute or inline asm "
                    "outside src/{crypto,bigint}/*_accel.cpp — move the "
                    "code into an accel unit behind a cpuid check")
            for i, raw in enumerate(lines) if ISA_RE.search(strip_comment(raw))]


def check_accel_compile_options(accel_paths: list[str],
                                cmake_text: str) -> list[Finding]:
    blocks = [m.group(1) for m in CMAKE_PROPS_RE.finditer(cmake_text)]
    return [Finding(path, 1, "isa-confinement",
                    "accel unit has no set_source_files_properties(... "
                    "COMPILE_OPTIONS ...) in CMakeLists.txt — its ISA "
                    "flags are missing")
            for path in accel_paths
            if not any(path in b and "COMPILE_OPTIONS" in b for b in blocks)]


ONE_INTEGER_RE = re.compile(r"BigInt|bigint/bigint\.h")
ONE_INTEGER_ROOTS = ("src/", "bench/")


def check_one_integer(path: str, lines: list[str]) -> list[Finding]:
    return [Finding(path, i + 1, "one-integer",
                    "BigInt outside tests/ — the library and the benches "
                    "compute on bigint/limbs.h; BigInt is the tests' "
                    "oracle (tests/oracle/)")
            for i, raw in enumerate(lines) if ONE_INTEGER_RE.search(raw)]


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def load_tree(repo: pathlib.Path,
              roots: tuple[str, ...] = ("src", "tools", "bench")
              ) -> dict[str, str]:
    files = {}
    for sub in roots:
        root = repo / sub
        if not root.is_dir():
            continue
        for p in sorted(root.rglob("*")):
            if p.suffix in (".cpp", ".h"):
                rel = p.relative_to(repo).as_posix()
                files[rel] = p.read_text()
    return files


def run_lint(repo: pathlib.Path) -> list[Finding]:
    files = load_tree(repo)
    findings: list[Finding] = []

    for path, text in files.items():
        lines = text.splitlines()
        if path.startswith("src/store/") and path.endswith(".cpp"):
            findings += check_failpoint_adjacency(path, lines)
        if path in WIRE_FILES:
            findings += check_wire_alloc(path, lines)
        if path.startswith("src/") and path.endswith(".h") \
                and path not in MUTEX_HEADER_ALLOWLIST:
            findings += check_mutex_header(path, lines)
        if path.startswith(ONE_INTEGER_ROOTS):
            findings += check_one_integer(path, lines)

    findings += check_wire_scope(files, WIRE_FILES)

    status = files.get("src/common/status.h", "")
    retry = files.get("src/roap/retry.cpp", "")
    findings += check_classify_coverage(status, "src/roap/retry.cpp", retry)
    findings += check_catalog_drift(files, "src/common/failpoint.cpp")

    isa_files = load_tree(repo, ISA_ROOTS)
    for path, text in isa_files.items():
        findings += check_isa_confinement(path, text.splitlines())
    cmake = repo / "CMakeLists.txt"
    findings += check_accel_compile_options(
        [p for p in isa_files if ACCEL_FILE_RE.match(p)],
        cmake.read_text() if cmake.is_file() else "")
    return findings


# --------------------------------------------------------------------------
# Self test: each rule must fire on a seeded violation and stay quiet on
# the corresponding clean snippet. Guards against regex rot disabling a
# rule without anyone noticing (a linter that never fails is decoration).
# --------------------------------------------------------------------------


def self_test() -> list[str]:
    errors: list[str] = []

    def expect(rule: str, found: list[Finding], want: bool, what: str):
        hit = any(f.rule == rule for f in found)
        if hit != want:
            errors.append(f"{rule}: expected {'a' if want else 'no'} "
                          f"finding for {what}, got {[str(f) for f in found]}")

    # failpoint-adjacency -------------------------------------------------
    bad = ["void f(int fd) {", "  ::fsync(fd);", "}"]
    expect("failpoint-adjacency",
           check_failpoint_adjacency("t.cpp", bad), True, "naked fsync")
    good = ["void f(int fd) {",
            "  if (injected_failure(\"store.x.fsync\")) return;",
            "  ::fsync(fd);", "}"]
    expect("failpoint-adjacency",
           check_failpoint_adjacency("t.cpp", good), False, "gated fsync")
    escaped = ["void f(int fd) {", "  // nofailpoint: best-effort",
               "  ::fsync(fd);", "}"]
    expect("failpoint-adjacency",
           check_failpoint_adjacency("t.cpp", escaped), False,
           "nofailpoint escape")
    ro_open = ["int fd = ::open(p, O_RDONLY);"]
    expect("failpoint-adjacency",
           check_failpoint_adjacency("t.cpp", ro_open), False,
           "read-only open")
    w_open = ["int fd = ::open(p, O_WRONLY | O_CREAT, 0600);"]
    expect("failpoint-adjacency",
           check_failpoint_adjacency("t.cpp", w_open), True,
           "write open with no gate")

    # classify-coverage ---------------------------------------------------
    status = ("enum class StatusCode {\n  kOk = 0,\n  kTimeout,\n"
              "  kAccessDenied,\n};")
    complete = ("FaultClass RetryPolicy::classify(StatusCode code) {\n"
                "  switch (code) {\n"
                "    case StatusCode::kTimeout:\n"
                "      return FaultClass::kRetriable;\n"
                "    case StatusCode::kOk:\n"
                "    case StatusCode::kAccessDenied:\n"
                "      return FaultClass::kTerminal;\n  }\n"
                "  return FaultClass::kTerminal;\n}")
    expect("classify-coverage",
           check_classify_coverage(status, "r.cpp", complete), False,
           "exhaustive classify")
    missing = complete.replace("    case StatusCode::kAccessDenied:\n", "")
    expect("classify-coverage",
           check_classify_coverage(status, "r.cpp", missing), True,
           "classify missing an enumerator")
    defaulted = complete.replace("    case StatusCode::kAccessDenied:\n",
                                 "    default:\n")
    expect("classify-coverage",
           check_classify_coverage(status, "r.cpp", defaulted), True,
           "classify with default:")

    # wire-alloc ----------------------------------------------------------
    expect("wire-alloc",
           check_wire_alloc("w.cpp", ["auto* n = new Node();"]), True,
           "naked new")
    expect("wire-alloc",
           check_wire_alloc("w.cpp", ["s += std::to_string(len);"]), True,
           "naked to_string")
    expect("wire-alloc",
           check_wire_alloc("w.cpp", ["// coldpath: error text",
                                      "s += std::to_string(len);"]), False,
           "escaped to_string")
    expect("wire-alloc",
           check_wire_alloc("w.cpp", ["#include <new>"]), False,
           "include line")
    tree = {"src/xml/node.cpp": ""}
    expect("wire-alloc",
           check_wire_scope(tree, ["src/xml/node.cpp"]), False,
           "every WIRE_FILES entry present")
    expect("wire-alloc",
           check_wire_scope(tree, ["src/xml/node.cpp", "src/xml/gone.cpp"]),
           True, "stale WIRE_FILES entry")

    # mutex-header --------------------------------------------------------
    expect("mutex-header",
           check_mutex_header("h.h", ["  std::mutex mu_;"]), True,
           "raw std::mutex member")
    expect("mutex-header",
           check_mutex_header("h.h", ["  std::condition_variable cv_;"]),
           True, "raw condition_variable")
    expect("mutex-header",
           check_mutex_header("h.h", ["  std::condition_variable_any cv_;"]),
           False, "condition_variable_any")
    expect("mutex-header",
           check_mutex_header(
               "h.h", ["  OrderedMutex mu_{LockRank::kRng, \"x\"};",
                       "  int v_ GUARDED_BY(mu_) = 0;"]), False,
           "annotated OrderedMutex")
    expect("mutex-header",
           check_mutex_header(
               "h.h", ["  OrderedMutex mu_{LockRank::kRng, \"x\"};",
                       "  int v_ = 0;"]), True,
           "OrderedMutex with no GUARDED_BY")

    # catalog-drift -------------------------------------------------------
    fp_tmpl = ("const std::vector<SiteInfo>& catalog() {{\n"
               "  static const std::vector<SiteInfo> sites = {{\n"
               "{entries}\n"
               "  }};\n  return sites;\n}}\n")
    wired_cpp = 'void f() { failpoint::fire("store.a.write"); }\n'
    clean = {"src/common/failpoint.cpp":
             fp_tmpl.format(entries='      {"store.a.write", "desc"},'),
             "src/store/x.cpp": wired_cpp}
    expect("catalog-drift",
           check_catalog_drift(clean, "src/common/failpoint.cpp"), False,
           "catalog in sync")
    drifted = {"src/common/failpoint.cpp":
               fp_tmpl.format(entries='      {"store.dead.site", "desc"},'),
               "src/store/x.cpp": wired_cpp}
    expect("catalog-drift",
           check_catalog_drift(drifted, "src/common/failpoint.cpp"), True,
           "catalog with dead + missing entries")

    # isa-confinement -----------------------------------------------------
    expect("isa-confinement",
           check_isa_confinement("src/net/frame.cpp",
                                 ["#include <immintrin.h>"]), True,
           "intrinsic header outside an accel unit")
    expect("isa-confinement",
           check_isa_confinement(
               "src/crypto/sha1.cpp",
               ['__attribute__((target("sha"))) void f();']), True,
           "target attribute outside an accel unit")
    expect("isa-confinement",
           check_isa_confinement("src/crypto/aes_accel.cpp",
                                 ["#include <wmmintrin.h>"]), False,
           "intrinsic header in an accel unit")
    expect("isa-confinement",
           check_isa_confinement("src/crypto/sha1.cpp",
                                 ["// see <immintrin.h> in sha1_accel.cpp"]),
           False, "intrinsic header named in a comment")
    props = ("set_source_files_properties(\n"
             "    ${CMAKE_CURRENT_SOURCE_DIR}/src/crypto/x_accel.cpp\n"
             "    PROPERTIES COMPILE_OPTIONS \"-mx\")\n")
    expect("isa-confinement",
           check_accel_compile_options(["src/crypto/x_accel.cpp"], props),
           False, "accel unit with COMPILE_OPTIONS")
    expect("isa-confinement",
           check_accel_compile_options(["src/crypto/y_accel.cpp"], props),
           True, "accel unit with no COMPILE_OPTIONS")
    expect("isa-confinement",
           check_isa_confinement(
               "src/bigint/montgomery.cpp",
               ['  __asm__ volatile("mulxq %[b], %%rax, %%rbx" : : );']),
           True, "inline asm outside an accel unit")
    expect("isa-confinement",
           check_isa_confinement("src/bigint/montgomery.cpp",
                                 ['asm("nop");']), True,
           "plain asm statement outside an accel unit")
    expect("isa-confinement",
           check_isa_confinement("src/bigint/montgomery.cpp",
                                 ["// the kernels are asm (see *_accel)",
                                  "const char* kAsm = nullptr;"]),
           False, "asm named in a comment and inside an identifier")
    expect("isa-confinement",
           check_isa_confinement(
               "src/bigint/mont_accel.cpp",
               ['  __asm__ volatile("adcxq %%rax, %%r8" : : );']),
           False, "inline asm in a bigint accel unit")
    bigint_props = ("set_source_files_properties(\n"
                    "    ${CMAKE_CURRENT_SOURCE_DIR}/src/bigint/z_accel.cpp\n"
                    "    PROPERTIES COMPILE_OPTIONS \"-mbmi2;-madx\")\n")
    expect("isa-confinement",
           check_accel_compile_options(["src/bigint/z_accel.cpp"],
                                       bigint_props),
           False, "bigint accel unit with COMPILE_OPTIONS")
    expect("isa-confinement",
           check_accel_compile_options(["src/bigint/z_accel.cpp"], props),
           True, "bigint accel unit with no COMPILE_OPTIONS")

    # one-integer ---------------------------------------------------------
    expect("one-integer",
           check_one_integer("src/rsa/x.cpp", ['#include "bigint/bigint.h"']),
           True, "the BigInt header included")
    expect("one-integer",
           check_one_integer("bench/b.cpp",
                             ["  bigint::BigInt m = draw(rng);"]),
           True, "a BigInt in a bench")
    expect("one-integer",
           check_one_integer("src/rsa/x.cpp", ["// no BigInt here"]), True,
           "BigInt named in a comment")
    expect("one-integer",
           check_one_integer("src/rsa/x.cpp",
                             ['#include "bigint/limbs.h"',
                              "  bigint::Limbs m(bytes);"]),
           False, "limbs only")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--fix-catalog", action="store_true",
                    help="rewrite failpoint catalog() from wired sites")
    ap.add_argument("--skip-self-test", action="store_true",
                    help="skip the rule self-test (it is cheap; don't)")
    args = ap.parse_args()

    repo = pathlib.Path(args.repo).resolve()
    if not (repo / "src").is_dir():
        print(f"error: {repo} does not look like the repo root",
              file=sys.stderr)
        return 2

    if not args.skip_self_test:
        errs = self_test()
        if errs:
            for e in errs:
                print(f"self-test FAILED: {e}", file=sys.stderr)
            return 2

    if args.fix_catalog:
        files = load_tree(repo)
        fix_catalog(repo, files, "src/common/failpoint.cpp")
        # fall through: lint the (possibly rewritten) tree

    findings = run_lint(repo)
    for f in findings:
        print(f)
    if findings:
        print(f"\nlint_invariants: {len(findings)} violation(s)",
              file=sys.stderr)
        return 1
    print("lint_invariants: OK "
          "(failpoint-adjacency, classify-coverage, wire-alloc, "
          "mutex-header, catalog-drift, isa-confinement, one-integer)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
