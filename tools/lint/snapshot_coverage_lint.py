#!/usr/bin/env python3
"""Snapshot-coverage lint for the SSDKeeper SSDKSNP1 serializers.

The snapshot layer's contract is *completeness*: save_state must write and
load_state must read every field that defines device behaviour, or a
restored device silently diverges from the original (the exact bug class
the corruption-seeding tests catch only after the fact, one field at a
time). This lint closes the loop at review time: it parses every
snapshotted type, collects the fields its save/load serializers actually
touch, and reports any member that neither serializer mentions.

Model
-----
A *serializer* is either

  - a member function pair ``save_*`` / ``load_*`` on a class, taking a
    ``snapshot::StateWriter&`` / ``StateReader&`` (e.g. ``Ssd::save_state``,
    ``Scheduler::save_state``), or
  - a free function pair ``save_X(StateWriter&, const T&)`` /
    ``load_X(StateReader&, T&)`` whose subject is the non-archive
    parameter's type (e.g. ``save_options`` over ``SsdOptions``).

For each pair, the lint gathers *candidate types*: the subject type
itself, every known type whose name appears in either body (element
structs serialized in ranged-for loops: ``for (const PageOp& op : ...)``)
and, transitively, the types of covered members (``rs.req.id`` pulls
``sim::IoRequest`` in through ``RequestState::req``). Each candidate's
members must then appear — as a whole-word token, comments and strings
stripped — in both the save text and the load text of some pair that
reaches the type. Coverage is unioned across pairs: a field written by a
parent serializer on the type's behalf counts.

Findings (rule ids):

  missing-save      member never mentioned in any save body reaching it
  missing-load      member never mentioned in any load body reaching it
  asymmetric-pair   a type has save_* serializers but no load_* (or the
                    reverse) — nothing can ever restore what was written
  unjustified-skip  a skip directive with no reason
  stale-skip        a skip naming a member that IS fully serialized
  unknown-skip      a skip naming a member no type in scope declares
  bad-directive     an ssdk-snap: comment that parses as neither skip,
                    ignore-type, nor ignore-file

Suppressions
------------
Next to the member (inside the type definition) or inside/above either
serializer body::

    // ssdk-snap: skip(<member>): <reason>

The reason is mandatory. A type that must never be treated as snapshot
payload (serialization machinery, derived caches) opts out at its
definition::

    // ssdk-snap: ignore-type(<TypeName>): <reason>

Backends
--------
``--backend=internal`` (default) uses the built-in single-pass C++
surface parser — no dependencies, deterministic, what the self-test pins.
``--backend=libclang`` refines member extraction through python3-clang
when available (CI installs it); type member lists come from the real
AST, everything else is shared. ``--backend=auto`` tries libclang and
falls back with a notice.

Exit status: 0 = clean, 1 = findings, 2 = usage/harness error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

# Every directory that defines snapshotted state or serializers.
DEFAULT_SCAN_DIRS = ["src/sim", "src/ssd", "src/sched", "src/ftl",
                     "src/core", "src/snapshot", "src/fleet", "src/util"]

SOURCE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}

RULES = ("missing-save", "missing-load", "asymmetric-pair",
         "unjustified-skip", "stale-skip", "unknown-skip", "bad-directive")

SKIP_RE = re.compile(
    r"//\s*ssdk-snap:\s*skip\(([A-Za-z_]\w*)\)(?::\s*(.*\S))?\s*$")
IGNORE_TYPE_RE = re.compile(
    r"//\s*ssdk-snap:\s*ignore-type\(([A-Za-z_]\w*)\)(?::\s*(.*\S))?\s*$")
IGNORE_FILE_RE = re.compile(r"//\s*ssdk-snap:\s*ignore-file(?::\s*(.*\S))?\s*$")
ANY_DIRECTIVE_RE = re.compile(r"//\s*ssdk-snap:")

RESERVED_WORDS = {
    "const", "constexpr", "static", "using", "typedef", "friend", "public",
    "private", "protected", "template", "typename", "explicit", "operator",
    "return", "virtual", "override", "final", "default", "delete", "enum",
    "struct", "class", "namespace", "if", "for", "while", "switch", "case",
    "else", "do", "sizeof", "noexcept", "mutable", "volatile", "inline",
    "extern", "auto", "void", "bool", "int", "char", "unsigned", "signed",
    "long", "short", "float", "double",
}


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


def strip_comments_and_strings(text: str) -> str:
    """Blank out //, /* */ comments and string/char literals, preserving
    newlines so line numbers survive."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
            continue
        if c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
            continue
        if c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out.append("  ")
                    i += 2
                    continue
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append(" ")
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


class Member:
    def __init__(self, name: str, type_text: str, line: int):
        self.name = name
        self.type_text = type_text
        self.line = line


class TypeInfo:
    def __init__(self, name: str, path: Path, start_line: int):
        self.name = name
        self.path = path
        self.start_line = start_line
        self.end_line = start_line
        self.members: list[Member] = []


class Serializer:
    """One save_*/load_* function: who it serializes and its body text."""

    def __init__(self, role: str, fn_name: str, subject: str | None,
                 path: Path, head_line: int):
        self.role = role            # "save" | "load"
        self.fn_name = fn_name
        self.subject = subject      # bare type name the pair is keyed on
        self.path = path
        self.head_line = head_line
        self.end_line = head_line
        self.body = ""


def _strip_annotations(stmt: str) -> str:
    stmt = re.sub(r"\[\[[^\]]*\]\]", " ", stmt)
    stmt = re.sub(r"\bSSDK_[A-Z_]+\s*\([^()]*\)", " ", stmt)
    stmt = re.sub(r"\bSSDK_[A-Z_]+\b", " ", stmt)
    stmt = re.sub(r"\balignas\s*\([^()]*\)", " ", stmt)
    stmt = re.sub(r"^(?:\s*(?:public|private|protected)\s*:)+", " ", stmt)
    return stmt.strip()


def _paren_outside_angles(text: str) -> bool:
    depth = 0
    for c in text:
        if c == "<":
            depth += 1
        elif c == ">":
            depth = max(0, depth - 1)
        elif c == "(" and depth == 0:
            return True
    return False


MEMBER_RE = re.compile(
    r"^(?P<type>[A-Za-z_][\w:<>,\s.*&\[\]()]*?[\s>&*])\s*"
    r"(?P<name>[A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*(?:=.*)?$", re.S)

TYPE_HEAD_RE = re.compile(r"^(?:template\s*<.*>\s*)?(?:struct|class)\b", re.S)
ENUM_HEAD_RE = re.compile(r"^(?:template\s*<.*>\s*)?enum\b", re.S)
NS_HEAD_RE = re.compile(r"^(?:inline\s+)?namespace\b", re.S)

SER_SIG_RE = re.compile(
    r"((?:[A-Za-z_]\w*::)*)((?:save|load)_\w+)\s*\(")


def _parse_member(stmt: str, line: int, ty: TypeInfo) -> None:
    stmt = _strip_annotations(stmt)
    first = re.match(r"[A-Za-z_~]\w*", stmt)
    if not first:
        return
    if first.group(0) in ("using", "typedef", "friend", "static",
                          "constexpr", "template", "explicit", "operator",
                          "enum", "struct", "class", "virtual", "return",
                          "namespace"):
        return
    if _paren_outside_angles(stmt):
        return  # function declaration
    m = MEMBER_RE.match(stmt)
    if not m:
        return
    name = m.group("name")
    if name in RESERVED_WORDS:
        return
    ty.members.append(Member(name, m.group("type").strip(), line))


def _split_params(params: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for c in params:
        if c in "<([":
            depth += 1
        elif c in ">)]":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    if cur:
        parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _subject_from_params(params: str) -> str | None:
    """Bare type name of the first parameter that is not the archive."""
    for p in _split_params(params):
        if "StateWriter" in p or "StateReader" in p:
            continue
        p = re.sub(r"<[^<>]*>", "", p)          # drop template args
        p = p.replace("const", " ").replace("&", " ").replace("*", " ")
        idents = [t for t in re.findall(r"[A-Za-z_]\w*", p)
                  if t not in RESERVED_WORDS and t != "std"]
        if not idents:
            continue
        # "sim::Geometry geom" → the param name is last, the type's bare
        # name is the identifier before it (or the only one).
        bare = idents[-2] if len(idents) >= 2 else idents[0]
        return bare.split("::")[-1]
    return None


class _Frame:
    def __init__(self, kind: str, data=None):
        self.kind = kind      # "type" | "ns" | "func" | "skip"
        self.data = data
        self.depth = 1
        self.body_start = 0
        self.restore: str | None = None


def _blank_preprocessor_lines(text: str) -> str:
    """Blank #include/#define/#if... lines (and their backslash
    continuations) so they never pollute statement buffers."""
    out = []
    blanking = False
    for ln in text.split("\n"):
        if blanking or ln.lstrip().startswith("#"):
            blanking = ln.rstrip().endswith("\\")
            out.append("")
        else:
            blanking = False
            out.append(ln)
    return "\n".join(out)


def parse_file(path: Path, text: str,
               types: dict[str, list[TypeInfo]],
               serializers: list[Serializer]) -> None:
    """Single pass over comment/string-stripped text: record every
    struct/class member list and every serializer body."""
    s = _blank_preprocessor_lines(strip_comments_and_strings(text))
    line = 1
    stack: list[_Frame] = []
    buf: list[str] = []
    stmt_line = 1

    def top() -> _Frame | None:
        return stack[-1] if stack else None

    def enclosing_type() -> TypeInfo | None:
        for f in reversed(stack):
            if f.kind == "type" and f.data is not None:
                return f.data
        return None

    i, n = 0, len(s)
    while i < n:
        c = s[i]
        if c == "\n":
            line += 1
            if not "".join(buf).strip():
                stmt_line = line
        t = top()
        if t is not None and t.kind in ("func", "skip"):
            if c == "{":
                t.depth += 1
            elif c == "}":
                t.depth -= 1
                if t.depth == 0:
                    if t.kind == "func" and isinstance(t.data, Serializer):
                        t.data.body = s[t.body_start:i]
                        t.data.end_line = line
                        serializers.append(t.data)
                    stack.pop()
                    if t.restore is not None:
                        buf = list(t.restore)
                    else:
                        buf = []
                        stmt_line = line
            i += 1
            continue
        if c == "{":
            head = _strip_annotations("".join(buf).strip())
            frame = _classify(head, path, stmt_line, enclosing_type())
            if frame.kind == "skip" and frame.restore is None:
                # brace-init inside a declaration: keep the statement text
                # so the terminating ';' still parses the member.
                frame.restore = "".join(buf)
            frame.body_start = i + 1
            stack.append(frame)
            buf = []
            stmt_line = line
        elif c == "}":
            if t is not None:
                stack.pop()
                if t.kind == "type" and t.data is not None:
                    t.data.end_line = line
                    types.setdefault(t.data.name, []).append(t.data)
            buf = []
            stmt_line = line
        elif c == ";":
            stmt = "".join(buf).strip()
            buf = []
            if stmt and t is not None and t.kind == "type" \
                    and t.data is not None:
                _parse_member(stmt, stmt_line, t.data)
            stmt_line = line
        else:
            buf.append(c)
        i += 1


def _classify(head: str, path: Path, line: int,
              enclosing: TypeInfo | None) -> _Frame:
    if ENUM_HEAD_RE.match(head):
        f = _Frame("skip")
        f.restore = ""  # enum ends with };  — nothing to keep
        return f
    if TYPE_HEAD_RE.match(head):
        part = re.split(r"(?<!:):(?!:)", head, maxsplit=1)[0]
        idents = re.findall(r"[A-Za-z_]\w*", part)
        while idents and idents[-1] in ("final",):
            idents.pop()
        name = idents[-1] if idents else ""
        if name in ("struct", "class") or not name:
            return _Frame("type", None)  # anonymous — recurse, record nothing
        return _Frame("type", TypeInfo(name, path, line))
    if NS_HEAD_RE.match(head):
        return _Frame("ns")
    if "(" in head:
        ser = _serializer_from_head(head, path, line, enclosing)
        if ser is not None:
            f = _Frame("func", ser)
        else:
            f = _Frame("func")
        f.restore = ""
        return f
    # brace-init of a declaration, lambda body, array initializer, ...
    return _Frame("skip")


def _serializer_from_head(head: str, path: Path, line: int,
                          enclosing: TypeInfo | None) -> Serializer | None:
    m = SER_SIG_RE.search(head)
    if not m:
        return None
    qualifier, fn_name = m.group(1), m.group(2)
    # Balanced-paren parameter extraction from the matched '('.
    start = m.end() - 1
    depth, j = 0, start
    while j < len(head):
        if head[j] == "(":
            depth += 1
        elif head[j] == ")":
            depth -= 1
            if depth == 0:
                break
        j += 1
    params = head[start + 1:j]
    role = "save" if fn_name.startswith("save_") else "load"
    wants = "StateWriter" if role == "save" else "StateReader"
    if wants not in params:
        return None
    if qualifier:
        subject = qualifier.rstrip(":").split("::")[-1]
    elif enclosing is not None:
        subject = enclosing.name
    else:
        subject = _subject_from_params(params)
        if subject is None:
            # Loaders often return the subject by value:
            #   SsdOptions load_options(StateReader& r)
            pre = head[:m.start()]
            idents = [t for t in re.findall(r"[A-Za-z_]\w*", pre)
                      if t not in RESERVED_WORDS and t != "std"
                      and not t.startswith("SSDK_")]
            if idents:
                subject = idents[-1]
    if subject is None:
        return None
    return Serializer(role, fn_name, subject, path, line)


# --------------------------------------------------------------------------
# libclang backend (optional refinement of member extraction)

def refine_types_with_libclang(files: list[Path],
                               types: dict[str, list[TypeInfo]],
                               strict: bool) -> bool:
    try:
        import clang.cindex as ci
    except ImportError:
        if strict:
            print("snapshot_coverage_lint: --backend=libclang requested "
                  "but python3-clang is not importable", file=sys.stderr)
        return False
    try:
        index = ci.Index.create()
    except Exception as e:  # libclang.so missing / version mismatch
        if strict:
            print(f"snapshot_coverage_lint: libclang unavailable: {e}",
                  file=sys.stderr)
        return False
    args = ["-x", "c++", "-std=c++20", f"-I{REPO_ROOT}/src"]
    refined = 0
    for path in files:
        try:
            tu = index.parse(str(path), args=args)
        except Exception:
            continue
        if tu is None:
            continue
        for cursor in tu.cursor.walk_preorder():
            if cursor.kind not in (ci.CursorKind.STRUCT_DECL,
                                   ci.CursorKind.CLASS_DECL):
                continue
            if not cursor.is_definition() or not cursor.spelling:
                continue
            loc = cursor.location
            if loc.file is None or Path(loc.file.name) != path:
                continue
            fields = [(c.spelling, c.type.spelling, c.location.line)
                      for c in cursor.get_children()
                      if c.kind == ci.CursorKind.FIELD_DECL]
            for ti in types.get(cursor.spelling, []):
                if ti.path != path:
                    continue
                if abs(ti.start_line - cursor.extent.start.line) > 2:
                    continue
                ti.members = [Member(n, t, ln) for n, t, ln in fields]
                refined += 1
    if refined:
        print(f"snapshot_coverage_lint: libclang refined {refined} "
              "type definition(s)")
    return True


# --------------------------------------------------------------------------
# Directive collection

class SkipDirective:
    def __init__(self, path: Path, line: int, member: str,
                 reason: str | None):
        self.path = path
        self.line = line
        self.member = member
        self.reason = reason
        self.used = False
        self.stale_hit = False


def collect_directives(path: Path, raw_lines: list[str],
                       skips: list[SkipDirective],
                       ignored_types: set[str],
                       findings: list[Finding]) -> bool:
    """Parse ssdk-snap directives from the raw (uncommented) source.
    Returns True if the whole file opts out via ignore-file."""
    ignore_file = False
    for idx, raw in enumerate(raw_lines):
        if not ANY_DIRECTIVE_RE.search(raw):
            continue
        m = SKIP_RE.search(raw)
        if m:
            if not m.group(2):
                findings.append(Finding(
                    path, idx + 1, "unjustified-skip",
                    f"skip({m.group(1)}) without a reason — say why this "
                    "field is safe to leave out of the snapshot"))
            skips.append(SkipDirective(path, idx + 1, m.group(1),
                                       m.group(2)))
            continue
        m = IGNORE_TYPE_RE.search(raw)
        if m:
            if not m.group(2):
                findings.append(Finding(
                    path, idx + 1, "unjustified-skip",
                    f"ignore-type({m.group(1)}) without a reason"))
            ignored_types.add(m.group(1))
            continue
        if IGNORE_FILE_RE.search(raw):
            ignore_file = True
            continue
        findings.append(Finding(
            path, idx + 1, "bad-directive",
            "unparseable ssdk-snap directive — expected "
            "skip(<member>): <reason>, ignore-type(<Type>): <reason>, "
            "or ignore-file"))
    return ignore_file


# --------------------------------------------------------------------------
# Coverage analysis

def _word_in(name: str, text: str) -> bool:
    return re.search(r"\b" + re.escape(name) + r"\b", text) is not None


def _member_inner_types(type_text: str,
                        types: dict[str, list[TypeInfo]]) -> list[str]:
    return [t for t in re.findall(r"[A-Za-z_]\w*", type_text)
            if t in types and t not in RESERVED_WORDS]


def analyze(types: dict[str, list[TypeInfo]],
            serializers: list[Serializer],
            skips: list[SkipDirective],
            ignored_types: set[str]) -> list[Finding]:
    findings: list[Finding] = []

    # Group serializers into pairs keyed by subject type.
    groups: dict[str, dict[str, list[Serializer]]] = {}
    for ser in serializers:
        if ser.subject is None or ser.subject in ignored_types:
            continue
        groups.setdefault(ser.subject, {}).setdefault(ser.role, []) \
              .append(ser)

    for subject, roles in sorted(groups.items()):
        if "save" not in roles or "load" not in roles:
            present = roles.get("save", roles.get("load", []))[0]
            missing = "load" if "save" in roles else "save"
            findings.append(Finding(
                present.path, present.head_line, "asymmetric-pair",
                f"{subject} has {present.role}_* serializers but no "
                f"{missing}_* counterpart — snapshots of it cannot "
                "round-trip"))

    # Per-definition union coverage across every pair that reaches it.
    # Keyed by TypeInfo identity so two same-named types in different
    # files (the fleet's TenantState vs the scheduler's) stay separate.
    coverage: dict[TypeInfo, dict[str, tuple[bool, bool]]] = {}
    reach: dict[TypeInfo, list[str]] = {}
    reached_names: dict[str, set[str]] = {}  # type name -> subjects

    def resolve_defs(name: str, pair_paths: set[Path]) -> list[TypeInfo]:
        """Definitions a pair plausibly refers to: when a same-named type
        is defined in one of the pair's own files, that local definition
        shadows the others (anonymous-namespace idiom)."""
        defs = types.get(name, [])
        local = [ti for ti in defs if ti.path in pair_paths]
        return local if local else defs

    for subject, roles in groups.items():
        if "save" not in roles or "load" not in roles:
            continue
        save_text = "\n".join(s.body for s in roles["save"])
        load_text = "\n".join(s.body for s in roles["load"])
        both_text = save_text + "\n" + load_text
        pair_paths = {s.path for s in roles["save"] + roles["load"]}

        candidates: list[str] = []
        seen: set[str] = set()

        def add_candidate(name: str) -> None:
            if name in seen or name in ignored_types or name not in types:
                return
            seen.add(name)
            candidates.append(name)

        add_candidate(subject)
        for name in types:
            if name in ignored_types or name == subject:
                continue
            if _word_in(name, both_text):
                add_candidate(name)

        # Transitive: a covered member of a candidate whose declared type
        # is a known struct pulls that struct in (rs.req.id style chains).
        qi = 0
        while qi < len(candidates):
            tname = candidates[qi]
            qi += 1
            for ti in resolve_defs(tname, pair_paths):
                for mem in ti.members:
                    if not (_word_in(mem.name, save_text)
                            and _word_in(mem.name, load_text)):
                        continue
                    for inner in _member_inner_types(mem.type_text, types):
                        add_candidate(inner)

        for tname in candidates:
            reached_names.setdefault(tname, set()).add(subject)
            for ti in resolve_defs(tname, pair_paths):
                per_def = coverage.setdefault(ti, {})
                reach.setdefault(ti, []).append(subject)
                for mem in ti.members:
                    prev = per_def.get(mem.name, (False, False))
                    per_def[mem.name] = (
                        prev[0] or _word_in(mem.name, save_text),
                        prev[1] or _word_in(mem.name, load_text))

    # Skip directives: map each to the types whose definition span (or
    # serializer scope) contains it.
    ser_scopes: list[tuple[Path, int, int, str]] = []
    for ser in serializers:
        if ser.subject is not None:
            ser_scopes.append((ser.path, max(1, ser.head_line - 6),
                               ser.end_line, ser.subject))

    def skip_scope_defs(d: SkipDirective) -> list[TypeInfo]:
        out = []
        for infos in types.values():
            for ti in infos:
                if ti.path == d.path and \
                        ti.start_line - 4 <= d.line <= ti.end_line:
                    out.append(ti)
        for path, lo, hi, subject in ser_scopes:
            if path == d.path and lo <= d.line <= hi:
                # every definition the pair reaches is in scope too
                for ti, subs in reach.items():
                    if subject in subs and ti not in out:
                        out.append(ti)
        return out

    skipped: dict[TypeInfo, set[str]] = {}
    for d in skips:
        matched = False
        for ti in skip_scope_defs(d):
            if any(m.name == d.member for m in ti.members):
                matched = True
                skipped.setdefault(ti, set()).add(d.member)
                cov = coverage.get(ti, {}).get(d.member)
                if cov is not None and cov[0] and cov[1]:
                    d.stale_hit = True
        if not matched:
            findings.append(Finding(
                d.path, d.line, "unknown-skip",
                f"skip({d.member}) names no member of any type in scope "
                "— stale after a rename or misplaced"))
        elif d.stale_hit:
            findings.append(Finding(
                d.path, d.line, "stale-skip",
                f"skip({d.member}) but the field IS serialized by both "
                "save and load — delete the suppression"))

    for ti in sorted(coverage, key=lambda t: (str(t.path), t.start_line)):
        per_def = coverage[ti]
        for mem in ti.members:
            if mem.name in skipped.get(ti, set()):
                continue
            in_save, in_load = per_def.get(mem.name, (False, False))
            where = ", ".join(sorted(set(reach.get(ti, []))))
            if not in_save:
                findings.append(Finding(
                    ti.path, mem.line, "missing-save",
                    f"{ti.name}::{mem.name} is never written by the "
                    f"save serializer(s) of [{where}] — a snapshot "
                    "drops it; serialize it or add "
                    f"`ssdk-snap: skip({mem.name}): <reason>`"))
            if not in_load:
                findings.append(Finding(
                    ti.path, mem.line, "missing-load",
                    f"{ti.name}::{mem.name} is never read back by the "
                    f"load serializer(s) of [{where}] — restore "
                    "leaves it stale; deserialize it or add "
                    f"`ssdk-snap: skip({mem.name}): <reason>`"))
    return findings


# --------------------------------------------------------------------------

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


def run_lint(paths: list[Path], backend: str = "internal") -> list[Finding]:
    files = gather_files(paths)
    types: dict[str, list[TypeInfo]] = {}
    serializers: list[Serializer] = []
    skips: list[SkipDirective] = []
    ignored_types: set[str] = set()
    findings: list[Finding] = []

    texts: dict[Path, str] = {}
    kept_files: list[Path] = []
    for f in files:
        text = f.read_text(encoding="utf-8", errors="replace")
        if collect_directives(f, text.splitlines(), skips, ignored_types,
                              findings):
            continue  # ignore-file
        texts[f] = text
        kept_files.append(f)
    for f in kept_files:
        parse_file(f, texts[f], types, serializers)

    if backend in ("libclang", "auto"):
        ok = refine_types_with_libclang(kept_files, types,
                                        strict=(backend == "libclang"))
        if not ok and backend == "libclang":
            raise RuntimeError("libclang backend unavailable")
        if not ok:
            print("snapshot_coverage_lint: libclang unavailable, using "
                  "internal parser")

    findings.extend(analyze(types, serializers, skips, ignored_types))
    findings.sort(key=lambda f: (str(f.path), f.line, f.rule))
    return findings


def self_test() -> int:
    """Run the bundled fixtures; each must produce exactly the expected
    rule set. The fixture suite is the lint's regression harness."""
    fixture_dir = Path(__file__).resolve().parent / "fixtures" / "snapshot"
    expectations = {
        "clean_roundtrip.cpp": set(),
        "missing_field.cpp": {"missing-save", "missing-load"},
        "missing_load.cpp": {"missing-load"},
        "nested_struct.cpp": {"missing-save", "missing-load"},
        "free_function_pair.cpp": {"missing-save", "missing-load"},
        "skipped_ok.cpp": set(),
        "skip_no_reason.cpp": {"unjustified-skip"},
        "stale_skip.cpp": {"stale-skip"},
        "unknown_skip.cpp": {"unknown-skip"},
        "asymmetric_pair.cpp": {"asymmetric-pair"},
        "bad_directive.cpp": {"bad-directive"},
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
        description="cross-check snapshotted types against their "
                    "save/load serializers")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to scan (default: the "
                             "snapshot-bearing src/ subtrees)")
    parser.add_argument("--backend", choices=("internal", "libclang",
                                              "auto"),
                        default="internal",
                        help="member-extraction backend (default: "
                             "internal parser; libclang refines via "
                             "python3-clang)")
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
        findings = run_lint(paths, backend=args.backend)
    except FileNotFoundError as e:
        print(f"snapshot_coverage_lint: no such path: {e.args[0]}",
              file=sys.stderr)
        return 2
    except RuntimeError as e:
        print(f"snapshot_coverage_lint: {e}", file=sys.stderr)
        return 2
    for f in findings:
        print(f.render())
    if findings:
        print(f"snapshot_coverage_lint: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
