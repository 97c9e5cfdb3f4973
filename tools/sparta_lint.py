#!/usr/bin/env python3
"""sparta_lint — repo-specific static checks that generic tools can't express.

Rules (each suppressible on a line, or the line above it, with
``// sparta-lint: allow(<rule>)``):

  deprecated-call  Calls to deleted entry points: the tuner per-strategy
                   functions (plan_profile_guided, ... — replaced by
                   Autotuner::tune/plan(TuneOptions)), the pre-block
                   single-vector kernels, and the host CSR side drivers and
                   SELL kernels (replaced by PreparedSpmv configs and the
                   timed bound driver). The rule stays armed so
                   reintroductions are caught; there are no in-tree targets.

  raw-assert       `assert(...)` in src/. Raw asserts vanish under NDEBUG
                   and abort without context otherwise; use SPARTA_REQUIRE /
                   SPARTA_ASSERT (src/check/contract.hpp), which are
                   level-gated and throw descriptive ContractViolations.

  unused-suppression  An ``allow(...)`` comment that matched no finding.
                   Stale suppressions hide nothing but suggest they do;
                   this rule is not itself suppressible.

The former regex heuristics for serializing OpenMP constructs and unpadded
atomics in hot directories (omp-critical, shared-counter) moved into the
C++ analyzer as omp.hot-critical and omp.unpadded-atomic, where the token
stream and directive model make them scope-aware (tools/analyze/,
DESIGN.md §12). Only the rules no structural pass can see remain here.

Suppression grammar (shared with sparta_analyze; the normative statement is
DESIGN.md §12): ``// sparta-<tool>: allow(rule[, rule]...)`` on the finding
line or the line directly above, where <tool> is ``lint`` here and
``analyze`` for the C++ analyzer, and rules match ``[a-z0-9.-]+``.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SOURCE_EXTS = {".cpp", ".hpp", ".h"}

# rule -> (directories it applies to, relative to the repo root)
SRC_DIRS = ("src",)
ALL_DIRS = ("src", "bench", "examples", "tools", "tests")

DEPRECATED_ENTRY_POINTS = (
    "plan_profile_guided",
    "plan_feature_guided",
    "plan_oracle",
    "plan_trivial",
    "tune_profile_guided",
    "tune_feature_guided",
    # Pre-block single-vector kernel entry points, replaced by the spmm_*
    # operand-view forms (spmv_kernels.hpp) in the SpMM redesign. The kept
    # *_dot names (csr_rows_local_dot / delta_rows_local_dot) do not match
    # the word-boundary pattern of the deleted ones.
    "spmv_csr_partitioned",
    "spmv_csr_dynamic",
    "spmv_delta_partitioned",
    "csr_rows_local",
    "delta_rows_local",
    # Host CSR side drivers and the host SELL kernels, replaced by the
    # registry's row kernels (PreparedSpmv configs, the timed bound driver
    # in microbench_kernels.hpp). The kept spmv_sell_reference and
    # simulate_spmv_sell do not match the word-boundary pattern.
    "spmm_csr_partitioned",
    "csr_rows_block_any",
    "spmv_csr_timed",
    "spmv_with_colind",
    "spmv_sell",
    "spmm_sell",
    "tune_host",  # Autotuner::tune with TunePolicy::kHostProfile
)

# Files where mentions of the names above are definitions rather than call
# sites. Empty since the wrappers were deleted outright in PR 6.
DEPRECATED_DEFINITION_FILES: set[str] = set()

ALLOW_RE = re.compile(r"sparta-lint:\s*allow\(([a-z0-9.-]+(?:\s*,\s*[a-z0-9.-]+)*)\)")


class Suppressions:
    """Per-file allow() entries with use-tracking (mirrors the C++
    sparta::analyze::Suppressions so both tools report stale entries)."""

    def __init__(self, raw_lines: list[str]):
        self.entries: list[list] = []  # [0-based line idx, rule, used]
        for idx, line in enumerate(raw_lines):
            m = ALLOW_RE.search(line)
            if m:
                for rule in (r.strip() for r in m.group(1).split(",")):
                    self.entries.append([idx, rule, False])

    def allowed(self, rule: str, idx: int) -> bool:
        hit = False
        for entry in self.entries:
            if entry[1] == rule and entry[0] in (idx, idx - 1):
                entry[2] = True
                hit = True
        return hit

    def unused(self) -> list[tuple[int, str]]:
        return [(entry[0], entry[1]) for entry in self.entries if not entry[2]]

# A call site: the identifier followed by '(' — optionally through . -> or ::
ASSERT_RE = re.compile(r"(?<![A-Za-z0-9_])assert\s*\(")


def strip_comments_and_strings(lines: list[str]) -> list[str]:
    """Blank out comments and string/char literals, preserving line count.

    A real lexer is overkill: this handles //, /* */ across lines, and
    double/single-quoted literals with escapes, which is all the codebase
    uses. The *original* lines keep carrying the suppression comments.
    """
    out = []
    in_block = False
    for line in lines:
        buf = []
        i = 0
        n = len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end == -1:
                    i = n
                else:
                    buf.append(" " * (end + 2 - i))
                    i = end + 2
                    in_block = False
                continue
            ch = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if ch == "/" and nxt == "/":
                break
            if ch == "/" and nxt == "*":
                in_block = True
                i += 2
                buf.append("  ")
                continue
            if ch in "\"'":
                quote = ch
                j = i + 1
                while j < n:
                    if line[j] == "\\":
                        j += 2
                        continue
                    if line[j] == quote:
                        break
                    j += 1
                buf.append(quote + " " * max(0, j - i - 1) + (quote if j < n else ""))
                i = j + 1
                continue
            buf.append(ch)
            i += 1
        out.append("".join(buf))
    return out


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.findings: list[tuple[str, int, str, str]] = []

    def report(self, rule: str, rel: str, lineno: int, message: str) -> None:
        self.findings.append((rel, lineno, rule, message))

    def lint_file(self, path: Path) -> None:
        rel = path.relative_to(self.root).as_posix()
        raw = path.read_text(encoding="utf-8").splitlines()
        code = strip_comments_and_strings(raw)
        supp = Suppressions(raw)
        in_src = rel.startswith("src/")

        for idx, line in enumerate(code):
            lineno = idx + 1
            if rel not in DEPRECATED_DEFINITION_FILES:
                for name in DEPRECATED_ENTRY_POINTS:
                    if re.search(rf"\b{name}\s*[(<]", line) and \
                            not supp.allowed("deprecated-call", idx):
                        self.report(
                            "deprecated-call", rel, lineno,
                            f"call to deleted '{name}'; see "
                            "DEPRECATED_ENTRY_POINTS for its replacement",
                        )
            if in_src:
                m = ASSERT_RE.search(line)
                if m and "static_assert" not in line[max(0, m.start() - 7):m.end()] \
                        and not supp.allowed("raw-assert", idx):
                    self.report(
                        "raw-assert", rel, lineno,
                        "raw assert in src/; use SPARTA_REQUIRE / SPARTA_ASSERT "
                        "(src/check/contract.hpp)",
                    )

        for idx, rule in supp.unused():
            self.report(
                "unused-suppression", rel, idx + 1,
                f"allow({rule}) matches no finding; remove it",
            )

    def run(self) -> int:
        files = []
        for d in ALL_DIRS:
            base = self.root / d
            if not base.is_dir():
                continue
            files.extend(p for p in sorted(base.rglob("*")) if p.suffix in SOURCE_EXTS)
        for f in files:
            self.lint_file(f)
        for rel, lineno, rule, message in self.findings:
            print(f"{rel}:{lineno}: [{rule}] {message}")
        print(
            f"sparta_lint: {len(files)} files, {len(self.findings)} finding(s)",
            file=sys.stderr,
        )
        return 1 if self.findings else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("root", nargs="?", default=".", help="repository root")
    args = ap.parse_args()
    root = Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"sparta_lint: {root} does not look like the repo root", file=sys.stderr)
        return 2
    return Linter(root).run()


if __name__ == "__main__":
    sys.exit(main())
