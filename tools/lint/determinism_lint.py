#!/usr/bin/env python3
"""Determinism lint for the SSDKeeper simulator.

The simulator's contract is bit-reproducibility: a fixed (workload, seed,
options) triple must produce an identical event schedule on every run, on
every machine. That contract dies quietly — a wall-clock read, an
accidental iteration over an unordered container, a pointer used as a
tie-break — and the golden-replay tests only catch the breakage after the
fact. This lint bans the constructs that break schedules *at review time*.

Rules (ids are what allow() takes):

  wall-clock      Real-time clocks: std::chrono::{system,steady,
                  high_resolution}_clock, time(), clock(), gettimeofday,
                  clock_gettime, and the timestamp counter (__rdtsc,
                  __rdtscp, _rdtsc). Simulation time is `now_`; host time
                  must never reach a schedule.
  unseeded-rng    std::rand/srand and std::random_device. All randomness
                  flows through util::Rng with an explicit seed.
  unordered-iter  Iteration over a std::unordered_{map,set} (range-for or
                  .begin()/.cbegin()). Hash-order is implementation-defined,
                  so any iteration whose effect depends on visit order is a
                  schedule hazard. Order-independent walks are fine —
                  suppress with a justification saying why.
  pointer-order   Ordering/comparing pointer values (std::less<T*>,
                  casts to uintptr_t, &a < &b). Addresses differ run to
                  run under ASLR.
  float-time      static_cast<SimTime|Duration>(...) fed from
                  floating-point math. Config-time conversions are fine
                  (suppress, say so); accumulating float into event
                  timestamps is not — rounding drifts across platforms.

Suppressions: append on the offending line, or on a comment line directly
above it,

    // ssdk-lint: allow(<rule>): <justification>

The justification is mandatory; an allow() without one is itself a
finding. Scope is that single line. A suppression must also stay *live*:
an allow() whose rule no longer fires on the statement it governs is
reported as `stale-allow` — suppressions that outlive the code they
excused are deleted, not hoarded (they would silently excuse the next
real finding on that line).

Exit status: 0 = clean, 1 = findings, 2 = usage/self-test harness error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

# Directories whose code can affect the event schedule.
DEFAULT_SCAN_DIRS = ["src/sim", "src/ssd", "src/sched", "src/ftl",
                     "src/core", "src/snapshot", "src/fleet", "src/nn",
                     "src/util"]

SOURCE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}

RULES = ("wall-clock", "unseeded-rng", "unordered-iter", "pointer-order",
         "float-time", "stale-allow")

ALLOW_RE = re.compile(
    r"//\s*ssdk-lint:\s*allow\(([a-z-]+)\)(?::\s*(.*\S))?\s*$")

SIMPLE_PATTERNS = [
    ("wall-clock",
     re.compile(r"std::chrono::(?:system_clock|steady_clock|"
                r"high_resolution_clock)"),
     "real-time clock in simulation code"),
    ("wall-clock",
     re.compile(r"(?:\b|::)(?:time|clock)\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "C time()/clock() call"),
    ("wall-clock",
     re.compile(r"\b(?:gettimeofday|clock_gettime|localtime|gmtime)\s*\("),
     "wall-clock library call"),
    ("wall-clock",
     re.compile(r"\b(?:__rdtscp?|_rdtsc)\s*\("),
     "CPU timestamp-counter read"),
    ("unseeded-rng",
     re.compile(r"(?:\b|::)s?rand\s*\("),
     "C rand()/srand() — use util::Rng with an explicit seed"),
    ("unseeded-rng",
     re.compile(r"std::random_device"),
     "std::random_device is non-deterministic by design"),
    ("pointer-order",
     re.compile(r"std::less<[^<>;]*\*\s*>"),
     "ordering by pointer value"),
    ("pointer-order",
     re.compile(r"reinterpret_cast<\s*(?:std::)?u?intptr_t\s*>"),
     "pointer converted to integer (address-dependent value)"),
    ("pointer-order",
     re.compile(r"(?<!&)&\s*\w+(?:\[[^\]]*\])?\s*[<>]=?\s*(?<!&)&(?!&)"),
     "comparing addresses of objects"),
]

FLOAT_TIME_CAST_RE = re.compile(
    r"static_cast<\s*(?:ssdk::)?(?:sim::)?(?:SimTime|Duration)\s*>")
FLOAT_TOKEN_RE = re.compile(r"\b(?:double|float)\b|\d\.\d")

UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self) -> str:
        try:
            shown = self.path.relative_to(REPO_ROOT)
        except ValueError:
            shown = self.path
        return f"{shown}:{self.line}: [{self.rule}] {self.message}"


def strip_strings_and_comments(line: str) -> str:
    """Blank out string/char literals and // comments so patterns never
    match inside them. Lengths are preserved (columns stay meaningful)."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            out.append(" " * (n - i))
            break
        if c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n:
                if line[i] == "\\":
                    out.append("  ")
                    i += 2
                    continue
                if line[i] == quote:
                    out.append(" ")
                    i += 1
                    break
                out.append(" ")
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def collect_unordered_names(files: list[Path]) -> set[str]:
    """Project-wide pass: names of variables/members declared as unordered
    containers. Declarations usually live in headers while the iteration
    lives in a .cpp, so this must see every scanned file first."""
    names: set[str] = set()
    for path in files:
        text = path.read_text(encoding="utf-8", errors="replace")
        for match in UNORDERED_DECL_RE.finditer(text):
            i = match.end() - 1  # at '<'
            depth = 0
            while i < len(text):
                if text[i] == "<":
                    depth += 1
                elif text[i] == ">":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            if depth != 0:
                continue
            tail = text[i + 1:i + 200]
            m = re.match(r"\s*(?:&\s*)?([A-Za-z_]\w*)\s*[;={,)\[]", tail)
            if m and m.group(1) not in ("const", "return"):
                names.add(m.group(1))
    return names


def statement_start(lines: list[str], idx: int) -> int:
    """First line of the statement containing line `idx`: walk up while the
    previous line is a code line that clearly continues into this one (no
    terminating ';', '{' or '}'). Comment and blank lines end the walk —
    they mark the statement's lead-in. Bounded so a pathological file
    cannot drag the scope arbitrarily far."""
    j = idx
    while j > 0 and idx - j < 8:
        prev = strip_strings_and_comments(lines[j - 1]).strip()
        if not prev or prev.endswith((";", "{", "}")):
            break
        j -= 1
    return j


def line_suppressions(lines: list[str],
                      idx: int) -> list[tuple[str, bool, int]]:
    """allow() directives governing line `idx` (0-based): on any line of
    the statement it belongs to, or on the contiguous run of pure comment
    lines directly above that statement. Returns (rule,
    has_justification, directive_line_idx) triples."""
    found = []
    start = statement_start(lines, idx)
    for k in range(start, idx + 1):
        m = ALLOW_RE.search(lines[k])
        if m:
            found.append((m.group(1), bool(m.group(2)), k))
    j = start - 1
    while j >= 0 and lines[j].lstrip().startswith("//"):
        m = ALLOW_RE.search(lines[j])
        if m:
            found.append((m.group(1), bool(m.group(2)), j))
        j -= 1
    return found


def scan_file(path: Path, unordered_names: set[str]) -> list[Finding]:
    lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    findings: list[Finding] = []

    # Every allow() directive in the file, by line; marked used when its
    # rule actually fires on the statement it governs.
    directives: dict[int, tuple[str, bool]] = {}
    for k, raw in enumerate(lines):
        m = ALLOW_RE.search(raw)
        if m:
            directives[k] = (m.group(1), bool(m.group(2)))
    used_directives: set[int] = set()

    iter_res = []
    if unordered_names:
        alt = "|".join(re.escape(n) for n in sorted(unordered_names))
        iter_res = [
            (re.compile(r"for\s*\([^;)]*:\s*(?:\w+(?:\.|->))?(" + alt
                        + r")\s*\)"),
             "range-for over unordered container '{}'"),
            (re.compile(r"\b(" + alt + r")\s*\.\s*c?begin\s*\(\s*\)"),
             "iterator walk over unordered container '{}'"),
        ]

    for idx, raw in enumerate(lines):
        line = strip_strings_and_comments(raw)
        hits: list[tuple[str, str]] = []

        for rule, pattern, message in SIMPLE_PATTERNS:
            if pattern.search(line):
                hits.append((rule, message))

        if FLOAT_TIME_CAST_RE.search(line):
            window = " ".join(
                strip_strings_and_comments(x)
                for x in lines[idx:idx + 3])
            if FLOAT_TOKEN_RE.search(window):
                hits.append(("float-time",
                             "floating-point math cast into a simulation "
                             "time/duration"))

        for pattern, template in iter_res:
            m = pattern.search(line)
            if m:
                hits.append(("unordered-iter", template.format(m.group(1))))

        if not hits:
            continue

        suppressions = line_suppressions(lines, idx)
        for rule, message in hits:
            matching = [s for s in suppressions if s[0] == rule]
            for _, _, directive_idx in matching:
                used_directives.add(directive_idx)
            if not matching:
                findings.append(Finding(path, idx + 1, rule, message))
                continue
            if not any(justified for _, justified, _ in matching):
                findings.append(Finding(
                    path, idx + 1, rule,
                    "allow(" + rule + ") without a justification — "
                    "explain why this is schedule-safe"))

    # Every allow() must earn its keep: a directive whose rule never fired
    # on the statement it governs is stale (the code it excused is gone,
    # or it was written against the wrong line) and would silently excuse
    # the next real finding there. Unjustified directives are reported
    # whether or not they are stale.
    for directive_idx, (rule, _justified) in sorted(directives.items()):
        if directive_idx not in used_directives:
            findings.append(Finding(
                path, directive_idx + 1, "stale-allow",
                f"allow({rule}) suppresses nothing — '{rule}' does not "
                "fire on the statement this governs; delete the "
                "suppression"))
    return findings


def gather_files(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        if p.is_dir():
            files.extend(sorted(
                f for f in p.rglob("*") if f.suffix in SOURCE_SUFFIXES))
        elif p.is_file():
            files.append(p)
        else:
            raise FileNotFoundError(p)
    return files


def run_lint(paths: list[Path]) -> list[Finding]:
    files = gather_files(paths)
    unordered_names = collect_unordered_names(files)
    findings: list[Finding] = []
    for f in files:
        findings.extend(scan_file(f, unordered_names))
    return findings


def self_test() -> int:
    """Run the bundled fixtures and check each produces exactly the
    expected outcome. The fixture set is the lint's regression suite."""
    fixture_dir = Path(__file__).resolve().parent / "fixtures"
    expectations = {
        "wall_clock.cpp": {"wall-clock"},
        "unseeded_rng.cpp": {"unseeded-rng"},
        "unordered_iter.cpp": {"unordered-iter"},
        "pointer_order.cpp": {"pointer-order"},
        "float_time.cpp": {"float-time"},
        "suppressed_ok.cpp": set(),
        "suppressed_no_reason.cpp": {"unordered-iter"},
        "stale_allow.cpp": {"stale-allow"},
        "recovery_unordered_scan.cpp": {"unordered-iter"},
        "clean.cpp": set(),
    }
    failures = 0
    for name, expected_rules in sorted(expectations.items()):
        path = fixture_dir / name
        if not path.is_file():
            print(f"self-test: missing fixture {path}", file=sys.stderr)
            failures += 1
            continue
        findings = run_lint([path])
        got_rules = {f.rule for f in findings}
        if got_rules != expected_rules:
            failures += 1
            print(f"self-test FAIL {name}: expected rules "
                  f"{sorted(expected_rules)} got {sorted(got_rules)}",
                  file=sys.stderr)
            for f in findings:
                print("  " + f.render(), file=sys.stderr)
        else:
            print(f"self-test ok   {name}")
    if failures:
        print(f"self-test: {failures} fixture(s) failed", file=sys.stderr)
        return 2
    print("self-test: all fixtures behaved")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="ban schedule-affecting constructs in simulator code")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to scan (default: the "
                             "schedule-affecting src/ subtrees)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the bundled fixtures instead of scanning")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        print("\n".join(RULES))
        return 0
    if args.self_test:
        return self_test()

    if args.paths:
        paths = [Path(p).resolve() for p in args.paths]
    else:
        paths = [REPO_ROOT / d for d in DEFAULT_SCAN_DIRS]
    try:
        findings = run_lint(paths)
    except FileNotFoundError as e:
        print(f"determinism_lint: no such path: {e.args[0]}",
              file=sys.stderr)
        return 2
    for f in findings:
        print(f.render())
    if findings:
        print(f"determinism_lint: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
