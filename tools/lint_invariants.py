#!/usr/bin/env python3
"""Repo-specific invariant lint for iotml (registered as CTest test `lint.invariants`).

Generic tools (clang-tidy, compiler warnings) cannot see iotml's own
conventions, so this script enforces them:

R1  precondition-checks   Any declaration in src/**/*.hpp whose doc comment
                          documents a precondition ("throws InvalidArgument")
                          must enforce it in every located definition body via
                          IOTML_CHECK (or an explicit `throw InvalidArgument`
                          for lookup-style failures that are not expressible
                          as a single boolean check).
R2  no-naked-std-throws   `throw std::...` is forbidden in src/** outside
                          src/util/error.* — library code signals errors
                          through the iotml::Error hierarchy so callers can
                          catch library failures distinctly.
R3  no-include-cycles     The `#include "..."` graph over src/** must be
                          acyclic.
R4  rng-discipline        rand()/srand(), std::random_device,
                          std::default_random_engine, direct std::mt19937
                          construction, and time()-based seeding are forbidden
                          outside src/util/rng.* — every stochastic component
                          draws from a seedable iotml::Rng so experiments are
                          reproducible (DESIGN.md).
R5  pragma-once           Every header in src/** starts with #pragma once.
R6  timing-discipline     Raw clock reads (std::chrono::steady_clock /
                          system_clock / high_resolution_clock, clock_gettime,
                          gettimeofday) are forbidden outside src/obs/ — all
                          timing flows through obs::now_us() so spans, stage
                          wall times and bench reports share one clock and the
                          no-op fast path stays the single place that decides
                          whether time is read at all. Applies to src/, bench/,
                          examples/ and tests/.
R7  serialization-casts   reinterpret_cast is forbidden in src/, bench/,
                          examples/ and tests/ except inside the shared codec
                          core src/util/bytes.* on lines carrying a
                          `// codec-sanctioned` comment, and bare narrowing
                          static_casts (to [u]int8_t/[u]int16_t) are forbidden
                          in the serialization trees src/deploy/ and src/tdf/
                          outside the codec core — wire bytes go through the
                          checked ByteWriter/ByteReader/narrow_* helpers so
                          the formats stay endian-stable and a value that
                          does not fit throws instead of silently wrapping
                          (golden bytes are pinned in tests/golden/).
R8  transport-discipline  Calls of the one wire primitive, Link::try_transmit
                          (`.try_transmit(` / `->try_transmit(`), are
                          forbidden outside src/net/ in src/, bench/ and
                          examples/ — every simulator send goes through
                          net::Channel so transport policy (both retry
                          policies, backpressure, checksum accounting) is
                          applied in exactly one place. tests/ are exempt:
                          they may exercise the Link primitive directly.
R9  float-equality        Bare `==` / `!=` against a floating-point literal is
                          forbidden in tests/ and bench/ — exact comparison is
                          representation-fragile (a value recomputed through a
                          different codepath or optimization level rounds
                          differently). Compare with EXPECT_NEAR / an explicit
                          std::abs tolerance, or restructure the check over
                          integers (e.g. loop indices instead of the float
                          values they select).
R10 stage-accounting      A default-constructed StageReport declaration
                          (`StageReport x;` / `pipeline::StageReport x;`) is
                          forbidden in src/ outside src/pipeline/stage.* and
                          src/sim/stage_log.cpp — every stage report comes
                          from pipeline::run_stage, so rows, columns, missing
                          rates, cost and the one wall-time measurement are
                          filled the same way wherever a stage runs.
R11 single-ledger         obs::registry() is not called in src/sim/ or
                          src/net/ outside src/sim/report.cpp — a fleet run
                          keeps every count in its FleetReport, and
                          sim::publish_counters adds the totals to the
                          registry once per run, so the two can never drift
                          and the event loop takes no registry lock.
R12 worker-allocation     The body of a lambda passed to
                          for_each_index_in_blocks in src/sim/ makes no
                          allocating call (push_back, emplace_back, resize,
                          reserve, insert, new, make_unique, make_shared) —
                          workers write only into memory the constructing
                          thread allocated, so every device-window block is
                          allocated and freed by one thread (DESIGN.md §9).
R13 one-wire-resolution   tdf::quantize( and tdf::quantize_value( are called
                          in src/sim/ only inside FleetSim::handle_device_flush
                          — a telemetry window is quantized once, where the
                          device tier returns it, so its backlog sizing, its
                          frame and the edge's decode all see the same rows
                          and no later site re-quantizes them (DESIGN.md §15).

Exit code 0 when clean; 1 with one line per violation otherwise.

Usage: lint_invariants.py [--root REPO_ROOT] [--self-test]

--self-test runs the built-in per-rule unit corpus (each rule exercised with
one violating and one clean snippet in a temp tree) and exits 0/1.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

PRECONDITION_DOC = re.compile(r"[Tt]hrows\s+InvalidArgument")
THROW_STD = re.compile(r"\bthrow\s+std::")
PRAGMA_ONCE = re.compile(r"^\s*#\s*pragma\s+once\s*$", re.MULTILINE)
LOCAL_INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
BANNED_RNG = [
    (re.compile(r"(?<![\w.])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"\bstd::default_random_engine\b"), "std::default_random_engine"),
    (re.compile(r"\bstd::mt19937(_64)?\s*\{"), "direct std::mt19937 construction"),
    (re.compile(r"\bstd::mt19937(_64)?\s+\w+\s*[({=]"), "direct std::mt19937 construction"),
    (re.compile(r"\btime\s*\(\s*(nullptr|NULL|0)\s*\)"), "time()-based seeding"),
]


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line structure."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    j += 1
                    break
                j += 1
            out.append(quote + " " * (j - i - 2) + quote if j - i >= 2 else text[i:j])
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def extract_brace_block(text: str, open_idx: int) -> str:
    """Return the {...} block starting at text[open_idx] == '{' (best effort)."""
    depth = 0
    for j in range(open_idx, len(text)):
        if text[j] == "{":
            depth += 1
        elif text[j] == "}":
            depth -= 1
            if depth == 0:
                return text[open_idx : j + 1]
    return text[open_idx:]


def function_definition_bodies(code: str, name: str) -> list[str]:
    """Find bodies of definitions of `name` in comment-stripped code."""
    bodies = []
    for m in re.finditer(rf"\b{re.escape(name)}\s*\(", code):
        # Walk past the parameter list.
        depth = 0
        j = m.end() - 1
        while j < len(code):
            if code[j] == "(":
                depth += 1
            elif code[j] == ")":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        # Skip qualifiers (const, noexcept, trailing return, initializer lists
        # are rare here) up to the first ';' or '{'.
        k = j + 1
        while k < len(code) and code[k] not in ";{":
            k += 1
        if k < len(code) and code[k] == "{":
            bodies.append(extract_brace_block(code, k))
    return bodies


def check_preconditions(src: Path) -> list[str]:
    """R1: documented preconditions are enforced in the definition bodies."""
    problems = []
    for hpp in sorted(src.rglob("*.hpp")):
        raw = hpp.read_text()
        lines = raw.splitlines()
        module_dir = hpp.parent
        for idx, line in enumerate(lines):
            stripped = line.strip()
            if not stripped.startswith("///") or not PRECONDITION_DOC.search(stripped):
                continue
            # The doc block may span several /// lines; find the declaration
            # that follows it.
            decl_start = idx + 1
            while decl_start < len(lines) and lines[decl_start].strip().startswith("///"):
                decl_start += 1
            # Doc on a macro definition (e.g. IOTML_CHECK itself), not a function.
            if decl_start < len(lines) and lines[decl_start].lstrip().startswith("#"):
                continue
            decl = ""
            for j in range(decl_start, min(decl_start + 6, len(lines))):
                decl += lines[j] + "\n"
                if ";" in lines[j] or "{" in lines[j]:
                    break
            sig = decl.split("(")[0]
            words = re.findall(r"[A-Za-z_]\w*", sig)
            if not words:
                continue
            name = words[-1]
            loc = f"{hpp.relative_to(src.parent)}:{idx + 1}"
            # Pure-virtual declarations push the obligation onto overriders,
            # which live in the same module directory.
            candidates = []
            header_code = strip_comments_and_strings(raw)
            candidates.extend(function_definition_bodies(header_code, name))
            for cpp in sorted(module_dir.glob("*.cpp")):
                cpp_code = strip_comments_and_strings(cpp.read_text())
                candidates.extend(function_definition_bodies(cpp_code, name))
            if not candidates:
                problems.append(
                    f"{loc}: R1 documented precondition on `{name}` but no definition "
                    f"found in {module_dir.name}/ to enforce it"
                )
                continue
            unchecked = [
                b
                for b in candidates
                if "IOTML_CHECK" not in b and "throw InvalidArgument" not in b
            ]
            if len(unchecked) == len(candidates):
                problems.append(
                    f"{loc}: R1 `{name}` documents 'throws InvalidArgument' but no "
                    f"definition uses IOTML_CHECK (or throws InvalidArgument)"
                )
    return problems


def check_naked_std_throws(src: Path) -> list[str]:
    """R2: throw std::... only inside src/util/error.*."""
    problems = []
    for f in sorted(list(src.rglob("*.cpp")) + list(src.rglob("*.hpp"))):
        if f.parent.name == "util" and f.stem == "error":
            continue
        code = strip_comments_and_strings(f.read_text())
        for lineno, line in enumerate(code.splitlines(), start=1):
            if THROW_STD.search(line):
                problems.append(
                    f"{f.relative_to(src.parent)}:{lineno}: R2 naked `throw std::` — "
                    f"use IOTML_CHECK / the iotml::Error hierarchy (src/util/error.hpp)"
                )
    return problems


def check_include_cycles(src: Path) -> list[str]:
    """R3: the quoted-include graph over src/** is acyclic."""
    files = sorted(list(src.rglob("*.hpp")) + list(src.rglob("*.cpp")))
    known = {str(f.relative_to(src)) for f in files}
    graph: dict[str, list[str]] = {}
    for f in files:
        rel = str(f.relative_to(src))
        deps = []
        for inc in LOCAL_INCLUDE.findall(f.read_text()):
            if inc in known:
                deps.append(inc)
        graph[rel] = deps

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    problems = []

    def dfs(node: str, stack: list[str]) -> None:
        color[node] = GRAY
        stack.append(node)
        for dep in graph.get(node, []):
            if color.get(dep, WHITE) == GRAY:
                cycle = stack[stack.index(dep) :] + [dep]
                problems.append(f"src: R3 include cycle: {' -> '.join(cycle)}")
            elif color.get(dep, WHITE) == WHITE:
                dfs(dep, stack)
        stack.pop()
        color[node] = BLACK

    for node in graph:
        if color[node] == WHITE:
            dfs(node, [])
    return problems


def check_rng_discipline(src: Path) -> list[str]:
    """R4: no unseeded/global RNG outside src/util/rng.*."""
    problems = []
    for f in sorted(list(src.rglob("*.cpp")) + list(src.rglob("*.hpp"))):
        if f.parent.name == "util" and f.stem == "rng":
            continue
        code = strip_comments_and_strings(f.read_text())
        for lineno, line in enumerate(code.splitlines(), start=1):
            for pattern, what in BANNED_RNG:
                if pattern.search(line):
                    problems.append(
                        f"{f.relative_to(src.parent)}:{lineno}: R4 {what} — draw from a "
                        f"seedable iotml::Rng (src/util/rng.hpp) instead"
                    )
    return problems


BANNED_CLOCKS = [
    (re.compile(r"\bstd::chrono::steady_clock\b"), "std::chrono::steady_clock"),
    (re.compile(r"\bstd::chrono::system_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bstd::chrono::high_resolution_clock\b"),
     "std::chrono::high_resolution_clock"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
]


def check_timing_discipline(root: Path) -> list[str]:
    """R6: raw clock reads only inside src/obs/."""
    problems = []
    files: list[Path] = []
    for sub in ("src", "bench", "examples", "tests"):
        d = root / sub
        if d.is_dir():
            files.extend(sorted(list(d.rglob("*.cpp")) + list(d.rglob("*.hpp"))))
    for f in files:
        if f.parent.name == "obs" and f.parent.parent.name == "src":
            continue
        code = strip_comments_and_strings(f.read_text())
        for lineno, line in enumerate(code.splitlines(), start=1):
            for pattern, what in BANNED_CLOCKS:
                if pattern.search(line):
                    problems.append(
                        f"{f.relative_to(root)}:{lineno}: R6 {what} — time through "
                        f"obs::now_us() (src/obs/clock.hpp) so all timing shares one clock"
                    )
    return problems


REINTERPRET_CAST = re.compile(r"\breinterpret_cast\b")
NARROWING_CAST = re.compile(r"\bstatic_cast<\s*(?:std::)?u?int(?:8|16)_t\s*>")
CODEC_SANCTION = re.compile(r"//\s*codec-sanctioned")


def check_serialization_casts(root: Path) -> list[str]:
    """R7: byte-level casts only through the codec core src/util/bytes.*."""
    problems = []
    files: list[Path] = []
    for sub in ("src", "bench", "examples", "tests"):
        d = root / sub
        if d.is_dir():
            files.extend(sorted(list(d.rglob("*.cpp")) + list(d.rglob("*.hpp"))))
    for f in files:
        rel = f.relative_to(root)
        in_codec = f.parent.name == "util" and f.stem == "bytes"
        in_serialization = (
            "deploy" in f.parts or "tdf" in f.parts
        ) and f.suffix in (".cpp", ".hpp")
        raw_lines = f.read_text().splitlines()
        code = strip_comments_and_strings(f.read_text())
        for lineno, line in enumerate(code.splitlines(), start=1):
            if REINTERPRET_CAST.search(line):
                raw = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
                if in_codec and CODEC_SANCTION.search(raw):
                    continue
                problems.append(
                    f"{rel}:{lineno}: R7 reinterpret_cast — byte views belong in "
                    f"src/util/bytes.* (mark with `// codec-sanctioned`)"
                )
            if in_serialization and not in_codec and NARROWING_CAST.search(line):
                problems.append(
                    f"{rel}:{lineno}: R7 bare narrowing static_cast in serialization "
                    f"code — use util::narrow_u8/u16/u32/i8/i16 or enum_u8 "
                    f"(src/util/bytes.hpp) so overflow throws instead of wrapping"
                )
    return problems


DIRECT_TRANSMIT = re.compile(r"(?:\.|->)\s*try_transmit\s*\(")


def check_transport_discipline(root: Path) -> list[str]:
    """R8: Link::try_transmit calls only inside src/net/ (tests exempt)."""
    problems = []
    files: list[Path] = []
    for sub in ("src", "bench", "examples"):
        d = root / sub
        if d.is_dir():
            files.extend(sorted(list(d.rglob("*.cpp")) + list(d.rglob("*.hpp"))))
    for f in files:
        if f.parent.name == "net" and f.parent.parent.name == "src":
            continue
        code = strip_comments_and_strings(f.read_text())
        for lineno, line in enumerate(code.splitlines(), start=1):
            if DIRECT_TRANSMIT.search(line):
                problems.append(
                    f"{f.relative_to(root)}:{lineno}: R8 direct Link wire attempt — send "
                    f"through net::Channel (src/net/channel.hpp) so transport policy "
                    f"and accounting stay in one place"
                )
    return problems


FLOAT_LITERAL = r"(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?f?"
FLOAT_EQ = re.compile(
    rf"(?:[=!]=\s*[-+]?{FLOAT_LITERAL})|(?:{FLOAT_LITERAL}\s*[=!]=)"
)


def check_float_equality(root: Path) -> list[str]:
    """R9: no bare float-literal == / != in tests/ and bench/."""
    problems = []
    files: list[Path] = []
    for sub in ("tests", "bench"):
        d = root / sub
        if d.is_dir():
            files.extend(sorted(list(d.rglob("*.cpp")) + list(d.rglob("*.hpp"))))
    for f in files:
        code = strip_comments_and_strings(f.read_text())
        for lineno, line in enumerate(code.splitlines(), start=1):
            if FLOAT_EQ.search(line):
                problems.append(
                    f"{f.relative_to(root)}:{lineno}: R9 bare float-literal equality — "
                    f"exact ==/!= on floating literals is representation-fragile; use "
                    f"EXPECT_NEAR / a std::abs tolerance, or compare on integers"
                )
    return problems


STAGE_REPORT_DECL = re.compile(r"\b(?:pipeline::)?StageReport\s+\w+\s*(?:\{\s*\})?\s*;")
STAGE_ACCOUNTING_HOMES = {"pipeline/stage.hpp", "pipeline/stage.cpp", "sim/stage_log.cpp"}


def check_stage_accounting(src: Path) -> list[str]:
    """R10: StageReports are filled by pipeline::run_stage, not field by field."""
    problems = []
    for f in sorted(list(src.rglob("*.cpp")) + list(src.rglob("*.hpp"))):
        if f.relative_to(src).as_posix() in STAGE_ACCOUNTING_HOMES:
            continue
        code = strip_comments_and_strings(f.read_text())
        for lineno, line in enumerate(code.splitlines(), start=1):
            if STAGE_REPORT_DECL.search(line):
                problems.append(
                    f"{f.relative_to(src.parent)}:{lineno}: R10 default-constructed "
                    f"StageReport — build stage reports with pipeline::run_stage "
                    f"(src/pipeline/stage.hpp) so every field is filled in one place"
                )
    return problems


REGISTRY_CALL = re.compile(r"(?<![.>])\bregistry\s*\(\s*\)")
LEDGER_HOME = "sim/report.cpp"


def check_single_ledger(src: Path) -> list[str]:
    """R11: no obs::registry() call in src/sim/ or src/net/ but the publisher's."""
    problems = []
    for sub in ("sim", "net"):
        d = src / sub
        if not d.is_dir():
            continue
        for f in sorted(list(d.rglob("*.cpp")) + list(d.rglob("*.hpp"))):
            if f.relative_to(src).as_posix() == LEDGER_HOME:
                continue
            code = strip_comments_and_strings(f.read_text())
            for lineno, line in enumerate(code.splitlines(), start=1):
                if REGISTRY_CALL.search(line):
                    problems.append(
                        f"{f.relative_to(src.parent)}:{lineno}: R11 registry call in the "
                        f"fleet — count it in FleetReport and let sim::publish_counters "
                        f"(src/sim/report.cpp) publish the total once per run"
                    )
    return problems


WORKER_CALL = re.compile(r"\bfor_each_index_in_blocks\s*\(")
LAMBDA_HEAD = re.compile(r"\[[^\[\]]*\]\s*(?:\([^()]*\))?\s*(?:mutable\s*)?(?:->[^{]*)?\{")
ALLOCATING_CALL = re.compile(
    r"\b(?:push_back|emplace_back|resize|reserve|insert)\s*\(|\bnew\b|"
    r"\bmake_(?:unique|shared)\w*\s*[<(]")


def balanced_parens(text: str, open_idx: int) -> str:
    """Return the (...) block starting at text[open_idx] == '(' (best effort)."""
    depth = 0
    for j in range(open_idx, len(text)):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return text[open_idx : j + 1]
    return text[open_idx:]


def check_worker_allocation(src: Path) -> list[str]:
    """R12: lambdas run by for_each_index_in_blocks in src/sim/ allocate nothing."""
    problems = []
    d = src / "sim"
    if not d.is_dir():
        return problems
    for f in sorted(list(d.rglob("*.cpp")) + list(d.rglob("*.hpp"))):
        code = strip_comments_and_strings(f.read_text())
        for call in WORKER_CALL.finditer(code):
            args_start = call.end() - 1
            args = balanced_parens(code, args_start)
            scanned = 0  # a lambda nested in a scanned body is already covered
            for head in LAMBDA_HEAD.finditer(args):
                if head.start() < scanned:
                    continue
                body_start = args_start + head.end() - 1
                body = extract_brace_block(code, body_start)
                scanned = head.end() - 1 + len(body)
                for alloc in ALLOCATING_CALL.finditer(body):
                    lineno = code.count("\n", 0, body_start + alloc.start()) + 1
                    problems.append(
                        f"{f.relative_to(src.parent)}:{lineno}: R12 allocating call in a "
                        f"worker lambda — reserve the memory on the constructing thread "
                        f"and let the workers only fill it (DESIGN.md §9)"
                    )
    return problems


QUANTIZE_CALL = re.compile(r"\btdf::quantize(?:_value)?\s*\(")
QUANTIZE_HOME = re.compile(r"\bFleetSim::handle_device_flush\s*\(")


def definition_spans(code: str, head: re.Pattern) -> list[tuple[int, int]]:
    """(start, end) of the {...} body of every definition whose name matches `head`."""
    spans = []
    for m in head.finditer(code):
        params = balanced_parens(code, m.end() - 1)
        k = m.end() - 1 + len(params)
        while k < len(code) and code[k] not in ";{":
            k += 1
        if k < len(code) and code[k] == "{":
            spans.append((k, k + len(extract_brace_block(code, k))))
    return spans


def check_wire_resolution(src: Path) -> list[str]:
    """R13: src/sim/ quantizes telemetry rows only in FleetSim::handle_device_flush."""
    problems = []
    d = src / "sim"
    if not d.is_dir():
        return problems
    for f in sorted(list(d.rglob("*.cpp")) + list(d.rglob("*.hpp"))):
        code = strip_comments_and_strings(f.read_text())
        homes = definition_spans(code, QUANTIZE_HOME)
        for call in QUANTIZE_CALL.finditer(code):
            if any(start < call.start() < end for start, end in homes):
                continue
            lineno = code.count("\n", 0, call.start()) + 1
            problems.append(
                f"{f.relative_to(src.parent)}:{lineno}: R13 quantize outside "
                f"FleetSim::handle_device_flush — a telemetry window is quantized "
                f"once, where the device tier returns it (DESIGN.md §15)"
            )
    return problems


def check_pragma_once(src: Path) -> list[str]:
    """R5: every header uses #pragma once."""
    problems = []
    for hpp in sorted(src.rglob("*.hpp")):
        if not PRAGMA_ONCE.search(hpp.read_text()):
            problems.append(f"{hpp.relative_to(src.parent)}:1: R5 missing #pragma once")
    return problems


def self_test() -> int:
    """Per-rule unit corpus: one violating and one clean snippet per rule."""
    import tempfile

    failures: list[str] = []

    def case(name: str, should_flag: bool, files: dict[str, str],
             check, *, scope: str = "root") -> None:
        with tempfile.TemporaryDirectory() as td:
            root = Path(td)
            for rel, content in files.items():
                p = root / rel
                p.parent.mkdir(parents=True, exist_ok=True)
                p.write_text(content)
            problems = check(root / "src" if scope == "src" else root)
            if bool(problems) != should_flag:
                want = "a violation" if should_flag else "clean"
                failures.append(f"{name}: expected {want}, got {problems!r}")

    case("R1-flag", True,
         {"src/m/a.hpp": "#pragma once\n/// Throws InvalidArgument if n == 0.\nvoid f(int n);\n",
          "src/m/a.cpp": "void f(int n) { (void)n; }\n"},
         check_preconditions, scope="src")
    case("R1-clean", False,
         {"src/m/a.hpp": "#pragma once\n/// Throws InvalidArgument if n == 0.\nvoid f(int n);\n",
          "src/m/a.cpp": "void f(int n) { IOTML_CHECK(n != 0, \"n\"); }\n"},
         check_preconditions, scope="src")
    case("R2-flag", True, {"src/a.cpp": "void f() { throw std::runtime_error(\"x\"); }\n"},
         check_naked_std_throws, scope="src")
    case("R2-clean", False,
         {"src/util/error.cpp": "void f() { throw std::runtime_error(\"x\"); }\n"},
         check_naked_std_throws, scope="src")
    case("R3-flag", True,
         {"src/a.hpp": "#pragma once\n#include \"b.hpp\"\n",
          "src/b.hpp": "#pragma once\n#include \"a.hpp\"\n"},
         check_include_cycles, scope="src")
    case("R3-clean", False,
         {"src/a.hpp": "#pragma once\n#include \"b.hpp\"\n",
          "src/b.hpp": "#pragma once\n"},
         check_include_cycles, scope="src")
    case("R4-flag", True, {"src/a.cpp": "#include <random>\nstd::random_device rd;\n"},
         check_rng_discipline, scope="src")
    case("R4-clean", False, {"src/util/rng.cpp": "std::random_device rd;\n"},
         check_rng_discipline, scope="src")
    case("R5-flag", True, {"src/a.hpp": "struct A {};\n"}, check_pragma_once, scope="src")
    case("R5-clean", False, {"src/a.hpp": "#pragma once\nstruct A {};\n"},
         check_pragma_once, scope="src")
    case("R6-flag", True,
         {"src/a.cpp": "auto t = std::chrono::steady_clock::now();\n"},
         check_timing_discipline)
    case("R6-clean", False,
         {"src/obs/clock.cpp": "auto t = std::chrono::steady_clock::now();\n"},
         check_timing_discipline)
    case("R7-flag", True,
         {"src/a.cpp": "auto* p = reinterpret_cast<char*>(q);\n"},
         check_serialization_casts)
    case("R7-flag-narrow-tdf", True,
         {"src/tdf/codec.cpp": "auto b = static_cast<std::uint8_t>(n);\n"},
         check_serialization_casts)
    case("R7-clean", False,
         {"src/util/bytes.cpp":
          "auto* p = reinterpret_cast<char*>(q);  // codec-sanctioned\n"},
         check_serialization_casts)
    case("R7-flag-sanctioned-outside-core", True,
         {"src/deploy/codec.cpp":
          "auto* p = reinterpret_cast<char*>(q);  // codec-sanctioned\n"},
         check_serialization_casts)
    case("R8-flag", True,
         {"src/sim/fleet.cpp": "const Attempt a = link.try_transmit(now_s, bytes, rng);\n"},
         check_transport_discipline)
    case("R8-flag-pointer", True,
         {"bench/b.cpp": "auto a = link_->try_transmit(0.0, 10, rng);\n"},
         check_transport_discipline)
    case("R8-clean", False,
         {"src/net/channel.cpp": "const Attempt w = link_->try_transmit(start_s, bytes, rng);\n"},
         check_transport_discipline)
    case("R8-clean-tests", False,
         {"tests/t.cpp": "const Attempt a = link.try_transmit(0.0, 10, rng);\n"},
         check_transport_discipline)
    case("R9-flag", True, {"tests/t.cpp": "EXPECT_TRUE(v == 5.0);\n"},
         check_float_equality)
    case("R9-flag-mirrored", True, {"bench/b.cpp": "if (0.2 == eps) {}\n"},
         check_float_equality)
    case("R9-clean-near", False,
         {"tests/t.cpp": "EXPECT_NEAR(v, 5.0, 1e-9);\nif (x <= 5.0) {}\n"},
         check_float_equality)
    case("R9-clean-int", False, {"tests/t.cpp": "EXPECT_TRUE(n == 5);\n"},
         check_float_equality)
    case("R9-clean-src-out-of-scope", False, {"src/a.cpp": "bool b = v == 5.0;\n"},
         check_float_equality)
    case("R10-flag", True,
         {"src/sim/fleet.cpp": "  StageReport st;\n  st.stage_name = \"x\";\n"},
         check_stage_accounting, scope="src")
    case("R10-flag-qualified", True,
         {"src/sim/report.cpp": "pipeline::StageReport r{};\n"},
         check_stage_accounting, scope="src")
    case("R10-clean", False,
         {"src/pipeline/stage.hpp": "#pragma once\n  StageReport report;\n",
          "src/sim/stage_log.cpp": "  pipeline::StageReport out;\n",
          "src/sim/fleet.cpp":
          "StageReport acq = pipeline::run_stage(\"a\", \"d\", t, ds, body);\n"
          "for (const StageReport& r : reports) {}\n"},
         check_stage_accounting, scope="src")
    case("R11-flag-sim", True,
         {"src/sim/fleet.cpp": "  obs::registry().counter(\"sim.events\").add();\n"},
         check_single_ledger, scope="src")
    case("R11-flag-net", True,
         {"src/net/channel.cpp":
          "static obs::Counter& acks = obs::registry().counter(\"net.channel.acks\");\n"},
         check_single_ledger, scope="src")
    case("R11-clean", False,
         {"src/sim/report.cpp": "  obs::Registry& registry = obs::registry();\n",
          "src/sim/fleet.cpp": "tdf_registry_.add(schema);\n// obs::registry() stays out\n",
          "src/kernels/svm.cpp":
          "static obs::Counter& trains = obs::registry().counter(\"kernels.svm_trains\");\n"},
         check_single_ledger, scope="src")

    case("R12-flag", True,
         {"src/sim/fleet.cpp":
          "for_each_index_in_blocks(n, [&](std::size_t d) {\n"
          "  if (d > 0) {\n    rows[d].push_back(1.0);\n  }\n});\n"},
         check_worker_allocation, scope="src")
    case("R12-flag-new", True,
         {"src/sim/device_windows.cpp":
          "for_each_index_in_blocks(count, [&](std::size_t i) { cells[i] = new double[4]; });\n"},
         check_worker_allocation, scope="src")
    case("R12-clean", False,
         {"src/sim/device_windows.cpp":
          "void for_each_index_in_blocks(std::size_t count, const Work& work) {\n"
          "  threads.emplace_back(worker);\n}\n"
          "rows.reserve(n);\n"
          "for_each_index_in_blocks(n, [&](std::size_t d) { rows[d] = 2.0; });\n"
          "out.push_back(std::make_unique<double[]>(n));\n",
          "src/kernels/gram.cpp":
          "for_each_index_in_blocks(n, [&](std::size_t d) { rows[d].push_back(1.0); });\n"},
         check_worker_allocation, scope="src")

    case("R13-flag", True,
         {"src/sim/fleet.cpp":
          "void FleetSim::handle_device_flush(const Event& event) {\n"
          "  tdf::quantize(out.rows, bits);\n}\n"
          "void FleetSim::send(net::NodeId from, Buffer&& chunk, double now_s) {\n"
          "  if (on) {\n    tdf::quantize(chunk.rows, bits);\n  }\n}\n"},
         check_wire_resolution, scope="src")
    case("R13-flag-value", True,
         {"src/sim/fleet.cpp":
          "void FleetSim::store(net::NodeId device, Buffer&& chunk) {\n"
          "  for (double& o : chunk.origin_s) o = tdf::quantize_value(o, bits);\n}\n"},
         check_wire_resolution, scope="src")
    case("R13-clean", False,
         {"src/sim/fleet.cpp":
          "void handle_device_flush(const Event& event);\n"
          "void FleetSim::handle_device_flush(const Event& event) {\n"
          "  if (on) {\n    tdf::quantize(out.rows, bits);\n"
          "    t = tdf::quantize_value(event.time_s, bits);\n  }\n}\n"
          "void FleetSim::send() {\n  // tdf::quantize(chunk.rows, bits) happened at the flush\n}\n",
          "src/tdf/codec.cpp":
          "void quantize(Dataset& ds, int bits) { v = tdf::quantize_value(v, bits); }\n"},
         check_wire_resolution, scope="src")

    if failures:
        for f in failures:
            print(f"self-test FAIL {f}")
        print(f"lint_invariants --self-test: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("lint_invariants --self-test: all per-rule cases passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="repository root (containing src/)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in per-rule unit corpus and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    src = args.root / "src"
    if not src.is_dir():
        print(f"lint_invariants: no src/ under {args.root}", file=sys.stderr)
        return 2

    problems = []
    problems += check_preconditions(src)
    problems += check_naked_std_throws(src)
    problems += check_include_cycles(src)
    problems += check_rng_discipline(src)
    problems += check_pragma_once(src)
    problems += check_timing_discipline(args.root)
    problems += check_serialization_casts(args.root)
    problems += check_transport_discipline(args.root)
    problems += check_float_equality(args.root)
    problems += check_stage_accounting(src)
    problems += check_single_ledger(src)
    problems += check_worker_allocation(src)
    problems += check_wire_resolution(src)

    if problems:
        for p in problems:
            print(p)
        print(f"lint_invariants: {len(problems)} violation(s)", file=sys.stderr)
        return 1
    print("lint_invariants: clean (R1 preconditions, R2 throws, R3 cycles, R4 rng, "
          "R5 pragma, R6 timing, R7 serialization casts, R8 transport, "
          "R9 float equality, R10 stage accounting, R11 single ledger, "
          "R12 worker allocation, R13 wire resolution)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
