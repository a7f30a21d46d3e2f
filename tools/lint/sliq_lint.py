#!/usr/bin/env python3
"""sliq_lint — repo-specific structural lint rules clang-tidy cannot express.

Rules (see DESIGN.md §10 and support/assert.hpp):

  R1 ref-pairing      A file that calls BddManager::ref() must also call
                      deref() (lexical pairing of manual refcount traffic).
  R2 memo-traversal   Functions annotated `// lint: memo-traversal` memoize
                      node ids / edge words; creating nodes or running GC
                      inside them would invalidate the keys mid-walk. Their
                      bodies must not call any manager mutator.
  R3 rand-ban         No raw rand()/srand()/std::rand — all randomness goes
                      through support/rng.hpp so runs stay reproducible.
  R4 assert-purity    SLIQ_ASSERT compiles out under NDEBUG, so its argument
                      must be side-effect free: no ++/--, no assignment, no
                      known-mutating call. Hoist the expression to a local.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SOURCE_GLOBS = ("*.cpp", "*.hpp")

# Manager mutators: anything that can allocate nodes, run GC, reorder, or
# touch the computed cache. Matching is on the bare call token so both
# `mgr.ite(...)` and unqualified member calls are caught.
MUTATOR_CALLS = (
    "makeNode", "allocNode", "ite", "andE", "orE", "xorE", "xnorE",
    "restrict1", "cubeEdge", "newVar", "garbageCollect",
    "reorderSift", "maybeGc", "cacheInsert", "cacheClear", "swapLevels",
    "siftVar", "makeVNode", "makeMNode", "vAdd", "mAdd", "mvMultiply",
    "applyGate", "applyFusedOp", "invalidateMonolithic", "monolithic",
)

# Calls that are obviously stateful when they appear inside an assertion.
ASSERT_MUTATOR_CALLS = MUTATOR_CALLS + (
    "computeTotalFresh", "measure", "reset", "collapse", "sampleAll",
    "sampleShots", "run", "runStatic", "runDynamic", "push_back",
    "pop_back", "emplace", "emplace_back", "insert", "erase",
)


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line structure
    so reported line numbers stay accurate."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        two = text[i : i + 2]
        if two == "//":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif two == "/*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


REF_CALL = re.compile(r"\bref\s*\(")
DEREF_CALL = re.compile(r"\bderef\s*\(")
SIGNATURE = re.compile(r"^\s*(?:void|Edge|auto|bool|int)\b[^;{]*\bref\s*\(")


def check_ref_pairing(path: Path, code: str) -> list[Finding]:
    ref_sites = []
    has_deref = False
    for idx, cline in enumerate(code.splitlines()):
        if DEREF_CALL.search(cline):
            has_deref = True
        if REF_CALL.search(cline) and not SIGNATURE.match(cline):
            ref_sites.append(idx + 1)
    if ref_sites and not has_deref:
        return [
            Finding(path, ln, "R1",
                    "ref() call without a lexically paired deref() in this "
                    "file")
            for ln in ref_sites
        ]
    return []


MEMO_ANNOTATION = re.compile(r"//\s*lint:\s*memo-traversal")


def function_body_span(code: str, start: int) -> tuple[int, int] | None:
    """Span of the first balanced {...} block at/after `start`."""
    open_idx = code.find("{", start)
    if open_idx == -1:
        return None
    depth = 0
    for i in range(open_idx, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return (open_idx, i + 1)
    return None


def check_memo_traversal(path: Path, text: str, code: str) -> list[Finding]:
    findings = []
    for m in MEMO_ANNOTATION.finditer(text):
        span = function_body_span(code, m.end())
        if span is None:
            findings.append(
                Finding(path, line_of(text, m.start()), "R2",
                        "memo-traversal annotation with no function body "
                        "after it"))
            continue
        body = code[span[0] : span[1]]
        for name in MUTATOR_CALLS:
            for call in re.finditer(r"\b" + name + r"\s*\(", body):
                findings.append(
                    Finding(path, line_of(code, span[0] + call.start()), "R2",
                            f"manager mutator {name}() called inside a "
                            "memo-traversal (memoized node ids would not "
                            "survive allocation/GC)"))
    return findings


RAND_CALL = re.compile(r"\b(?:std\s*::\s*)?s?rand\s*\(")


def check_rand(path: Path, code: str) -> list[Finding]:
    return [
        Finding(path, line_of(code, m.start()), "R3",
                "raw rand()/srand() — use support/rng.hpp (sliq::Rng) so "
                "runs stay seedable and reproducible")
        for m in RAND_CALL.finditer(code)
    ]


ASSERT_CALL = re.compile(r"\bSLIQ_ASSERT\s*\(")
# An `=` that is not part of ==, !=, <=, >=, or a compound assignment.
BARE_ASSIGN = re.compile(r"(?<![=!<>+\-*/%&|^])=(?!=)")
COMPOUND_ASSIGN = re.compile(r"(?:[+\-*/%&|^]|<<|>>)=(?!=)")


def assert_argument(code: str, open_paren: int) -> str | None:
    depth = 0
    for i in range(open_paren, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return code[open_paren + 1 : i]
    return None


def check_assert_purity(path: Path, code: str) -> list[Finding]:
    findings = []
    for m in ASSERT_CALL.finditer(code):
        # Skip the macro's own definition in support/assert.hpp.
        line_start = code.rfind("\n", 0, m.start()) + 1
        if code[line_start:m.start()].lstrip().startswith("#define"):
            continue
        arg = assert_argument(code, m.end() - 1)
        if arg is None:
            continue
        ln = line_of(code, m.start())
        if "++" in arg or "--" in arg:
            findings.append(
                Finding(path, ln, "R4",
                        "increment/decrement inside SLIQ_ASSERT (compiled "
                        "out under NDEBUG) — hoist it to a local"))
        if BARE_ASSIGN.search(arg) or COMPOUND_ASSIGN.search(arg):
            findings.append(
                Finding(path, ln, "R4",
                        "assignment inside SLIQ_ASSERT (compiled out under "
                        "NDEBUG) — hoist it to a local"))
        for name in ASSERT_MUTATOR_CALLS:
            if re.search(r"\b" + name + r"\s*\(", arg):
                findings.append(
                    Finding(path, ln, "R4",
                            f"call to mutating {name}() inside SLIQ_ASSERT "
                            "(compiled out under NDEBUG) — hoist it to a "
                            "local"))
    return findings


def lint_file(path: Path) -> list[Finding]:
    text = path.read_text(encoding="utf-8", errors="replace")
    code = strip_comments_and_strings(text)
    findings = []
    findings += check_ref_pairing(path, code)
    findings += check_memo_traversal(path, text, code)
    findings += check_rand(path, code)
    findings += check_assert_purity(path, code)
    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to lint (default: src tools)")
    parser.add_argument("--report", metavar="FILE",
                        help="also write findings to FILE")
    try:
        opts = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    repo_root = Path(__file__).resolve().parent.parent.parent
    roots = [Path(p) for p in opts.paths] if opts.paths else [
        repo_root / "src", repo_root / "tools"]

    files: list[Path] = []
    for root in roots:
        if root.is_file():
            files.append(root)
        elif root.is_dir():
            for glob in SOURCE_GLOBS:
                files.extend(sorted(root.rglob(glob)))
        else:
            print(f"sliq_lint: no such path: {root}", file=sys.stderr)
            return 2

    findings: list[Finding] = []
    for f in files:
        findings.extend(lint_file(f))

    lines = [str(f) for f in findings]
    for line in lines:
        print(line)
    summary = (f"sliq_lint: {len(findings)} finding(s) in "
               f"{len(files)} file(s)")
    print(summary)
    if opts.report:
        Path(opts.report).write_text(
            "\n".join(lines + [summary]) + "\n", encoding="utf-8")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
