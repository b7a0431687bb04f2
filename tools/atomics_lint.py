#!/usr/bin/env python3
"""Atomics-discipline lint for the C++ sources (CI-enforced).

Weak-memory bugs are invisible to review unless every ordering decision is
explicit and justified at the site.  Five rules, over .hpp/.cpp files:

1. explicit-order: calls to atomic operations (std::atomic methods and the
   repo wrappers AtomicTagged/AtomicDoubleWord: load, store, exchange,
   fetch_*, compare_exchange_*, compare_and_swap, test_and_set) must pass a
   memory order -- an argument mentioning `memory_order` or a forwarded
   parameter named `*order*`.  Implicit seq_cst is rejected: if seq_cst is
   what you need, say so.  (The wrappers also take no defaults, so the
   compiler co-enforces this; the lint catches raw std::atomic sites.)

2. justified-relaxed: any `memory_order_relaxed` outside src/obs/ must
   carry a `// relaxed: <why>` justification on the same line or one of the
   two lines above.  src/obs/ is exempt wholesale: its one job is relaxed
   counting, and the header comment carries the argument once.

2b. relaxed-proof (src/queues/ and src/mem/ only): a `// relaxed: <why>`
   justification must also NAME ITS PROOF ARTIFACT -- `proof:
   mo-sweep:<site>` referencing an MSQ_MO_SITE row in src/sim/mo_table.hpp
   (the memory-order mutation sweep, tools/mo_mutation_sweep.cpp), or
   `proof: test:<path>` referencing a directed test that exists.  Both
   references are validated, so a renamed site or deleted test fails the
   lint, not just the reader.  Continuation comments (`// relaxed: ^`,
   `ditto`, `same ...`, `see ...`) inherit the primary's proof and are
   exempt.

3. aligned-shared-atomics: a `std::atomic<...>`/`std::atomic_flag` member
   or global declaration -- or a `port::Atomic<...>` one, the atomics seam
   of port/atomic.hpp -- must be cache-line aligned -- `alignas(...)` on
   the declaration, a `port::CacheAligned` wrapper at the use site, or an
   explicit `// share-ok: <why>` waiver (e.g. node fields that are packed
   by design, or fields padded as a group) on the same line or one of the
   two lines above.

4. no-volatile: `volatile` is banned -- it is not a synchronization
   primitive in C++.  Inline assembly (`asm volatile`) is exempt.

5. mo-site-match: every `MSQ_MO("<site>", <order>)` (port/atomic.hpp: the
   order of an access, labelled with its mutation-sweep row) must name an
   MSQ_MO_SITE row of src/sim/mo_table.hpp whose `annotated` order is
   <order> and whose kind matches the call it is passed to (load /
   load_halves: kLoad; store: kStore; every read-modify-write: kRmw).  The
   model build resolves the access through that row, so a header order
   that drifted from its row would be swept under the wrong claim.

Known limits (by design, this is a grep-class linter, not a parser):
operator sugar on atomics (`++x`, `x = v`) and `atomic_flag::clear()` are
not caught -- the wrappers avoid the former and nothing uses the latter.

Usage:
    tools/atomics_lint.py [--self-test] [PATH ...]   (default PATH: src/)

Exits non-zero iff violations (or self-test failures) are found.
"""

import os
import re
import sys

ATOMIC_METHODS = (
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_and",
    "fetch_or", "fetch_xor", "compare_exchange_weak",
    "compare_exchange_strong", "compare_and_swap", "test_and_set",
)

CALL_RE = re.compile(r"[.>](" + "|".join(ATOMIC_METHODS) + r")\s*\(")
RELAXED_RE = re.compile(r"memory_order_relaxed|memory_order::relaxed")
ATOMIC_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:static\s+)?(?:inline\s+)?(?:alignas\s*\([^)]*\)\s*)?"
    r"(?:(?:std::)?atomic(?:_flag\b|\s*<)|(?:(?:::)?msq::)?(?:port::)?Atomic\s*<)")
VOLATILE_RE = re.compile(r"\bvolatile\b")
ASM_RE = re.compile(r"\basm\b|__asm__")
ORDER_TOKEN_RE = re.compile(r"memory_order|[A-Za-z_]*order[A-Za-z_]*")


class Violation:
    def __init__(self, path, line_no, rule, message):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.message}"


def strip_comment(line):
    """Drop a // comment (naive about string literals -- fine for this code)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def extract_call_args(text, open_paren_idx):
    """Return the balanced-paren argument text starting at `(`, or None if
    the call is unterminated (runs past the scanned window)."""
    depth = 0
    for i in range(open_paren_idx, len(text)):
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren_idx + 1:i]
    return None


def has_order_token(args):
    if "memory_order" in args:
        return True
    # A forwarded parameter: an identifier containing "order" (wrapper
    # definitions forward `order` / `success_order` etc.).
    return any("order" in m.group(0)
               for m in re.finditer(r"[A-Za-z_][A-Za-z0-9_]*", args))


def check_explicit_order(path, lines, out):
    # Scan with a joined window so multi-line calls resolve.
    text = "\n".join(strip_comment(l) for l in lines)
    line_starts = []
    pos = 0
    for l in lines:
        line_starts.append(pos)
        pos += len(strip_comment(l)) + 1

    def line_of(offset):
        lo = 0
        for i, start in enumerate(line_starts):
            if start <= offset:
                lo = i
        return lo + 1

    for m in CALL_RE.finditer(text):
        method = m.group(1)
        args = extract_call_args(text, m.end() - 1)
        if args is None:
            continue  # unterminated within file: not a call we understand
        if method in ("load", "store") and looks_like_container(text, m.start()):
            continue
        if not has_order_token(args):
            out.append(Violation(
                path, line_of(m.start()), "explicit-order",
                f"atomic {method}() without an explicit memory order "
                f"(implicit seq_cst is banned; spell the order out)"))


def looks_like_container(text, call_start):
    """Heuristic escape hatch: `.load(`/`.store(` on objects that are
    clearly not atomics (e.g. an istream).  The repo's own non-atomic value
    slots use put()/get() precisely so this never fires; keep the hook for
    future third-party types."""
    del text, call_start
    return False


def check_relaxed_justified(path, lines, out):
    if f"{os.sep}obs{os.sep}" in path or "/obs/" in path.replace(os.sep, "/"):
        return
    for i, line in enumerate(lines):
        if not RELAXED_RE.search(strip_comment(line)):
            continue
        window = lines[max(0, i - 2):i + 1]
        if not any("// relaxed:" in w for w in window):
            out.append(Violation(
                path, i + 1, "justified-relaxed",
                "memory_order_relaxed without a `// relaxed: <why>` "
                "justification on this or the two preceding lines"))


PROOF_DIRS = ("src/queues/", "src/mem/")
# `^`, `E13 ^`, `ditto`, `same ...`, `see ...`: points at a primary
# justification nearby, which carries the proof.
CONTINUATION_RE = re.compile(r"^\s*(\^|ditto\b|same\b|see\b|[A-Za-z0-9_.]+\s*\^)")
PROOF_RE = re.compile(r"proof:\s*(?:mo-sweep:([A-Za-z0-9_.]+)|test:([^\s)]+))")


def repo_root():
    """The checkout root, located relative to this script (tools/...)."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


MO_ROW_RE = re.compile(
    r'MSQ_MO_SITE\("([^"]+)",\s*MoKind::k(\w+),\s*check::MemOrder::k(\w+)')
_MO_ROWS_CACHE = []


def mo_rows():
    """{site: (kind, annotated order)} parsed from the MSQ_MO_SITE rows of
    sim/mo_table.hpp, or None when the table is unreadable (validation is
    then skipped)."""
    if not _MO_ROWS_CACHE:
        path = os.path.join(repo_root(), "src", "sim", "mo_table.hpp")
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        except OSError:
            _MO_ROWS_CACHE.append(None)
            return None
        rows = {m.group(1): (m.group(2), m.group(3))
                for m in MO_ROW_RE.finditer(text)}
        _MO_ROWS_CACHE.append(rows or None)
    return _MO_ROWS_CACHE[0]


def mo_sweep_sites():
    """Site names of the MSQ_MO_SITE rows, or None (see mo_rows)."""
    rows = mo_rows()
    return set(rows) if rows else None


def check_relaxed_proof(path, lines, out):
    norm = path.replace(os.sep, "/")
    if not any(d in norm for d in PROOF_DIRS):
        return
    for i, line in enumerate(lines):
        idx = line.find("// relaxed:")
        if idx < 0:
            continue
        justification = line[idx + len("// relaxed:"):]
        if CONTINUATION_RE.match(justification):
            continue  # inherits the primary justification's proof
        # The proof may sit on the justification line or the next two
        # (multi-line comments).
        window = " ".join(lines[i:i + 3])
        m = PROOF_RE.search(window)
        if m is None:
            out.append(Violation(
                path, i + 1, "relaxed-proof",
                "relaxed justification must name its proof artifact: "
                "`proof: mo-sweep:<site>` (an MSQ_MO_SITE row in "
                "src/sim/mo_table.hpp) or `proof: test:<path>`"))
            continue
        site, test = m.group(1), m.group(2)
        if site is not None:
            sites = mo_sweep_sites()
            if sites is not None and site not in sites:
                out.append(Violation(
                    path, i + 1, "relaxed-proof",
                    f"unknown mo-sweep site '{site}': not an MSQ_MO_SITE "
                    f"row in src/sim/mo_table.hpp"))
        else:
            if not os.path.isfile(os.path.join(repo_root(), test)):
                out.append(Violation(
                    path, i + 1, "relaxed-proof",
                    f"proof test '{test}' does not exist"))


def check_aligned_atomics(path, lines, out):
    for i, line in enumerate(lines):
        code = strip_comment(line)
        if not ATOMIC_DECL_RE.search(code):
            continue
        # Declarations only: skip using/typedef/template-parameter lines.
        if re.search(r"\busing\b|\btypedef\b|\btemplate\b", code):
            continue
        window_text = "".join(lines[max(0, i - 2):i + 1])
        if "alignas" in code or "CacheAligned" in window_text \
                or "// share-ok:" in window_text:
            continue
        out.append(Violation(
            path, i + 1, "aligned-shared-atomics",
            "atomic member without cache-line alignment: add alignas / "
            "port::CacheAligned, or waive with `// share-ok: <why>`"))


MO_CALL_RE = re.compile(
    r'MSQ_MO\(\s*"([^"]*)"\s*,\s*(?:std::)?memory_order_(\w+)\s*\)')
ORDER_NAMES = {"relaxed": "Relaxed", "consume": "Acquire", "acquire": "Acquire",
               "release": "Release", "acq_rel": "AcqRel", "seq_cst": "SeqCst"}


def enclosing_call(text, offset):
    """Name of the call whose argument list contains `offset`, or None."""
    depth = 0
    for i in range(offset - 1, -1, -1):
        c = text[i]
        if c == ")":
            depth += 1
        elif c == "(":
            if depth == 0:
                m = re.search(r"([A-Za-z_][A-Za-z0-9_]*)\s*$", text[:i])
                return m.group(1) if m else None
            depth -= 1
    return None


def check_mo_sites(path, lines, out, rows=None):
    rows = rows if rows is not None else mo_rows()
    if rows is None:
        return
    text = "\n".join(strip_comment(l) for l in lines)
    calls = len(re.findall(r"(?<!define )\bMSQ_MO\(", text))
    if calls != len(MO_CALL_RE.findall(text)):
        out.append(Violation(
            path, 1, "mo-site-match",
            "an MSQ_MO call without a literal site and memory_order_*"))
    for m in MO_CALL_RE.finditer(text):
        line_no = text.count("\n", 0, m.start()) + 1
        site, order = m.group(1), m.group(2)
        if site not in rows:
            out.append(Violation(
                path, line_no, "mo-site-match",
                f"MSQ_MO site '{site}' is not an MSQ_MO_SITE row in "
                f"src/sim/mo_table.hpp"))
            continue
        kind, annotated = rows[site]
        if ORDER_NAMES.get(order) != annotated:
            out.append(Violation(
                path, line_no, "mo-site-match",
                f"MSQ_MO('{site}') passes memory_order_{order}, but its row "
                f"is annotated k{annotated}"))
        method = enclosing_call(text, m.start())
        want = ("Load" if method in ("load", "load_halves") else
                "Store" if method == "store" else "Rmw")
        if method in ATOMIC_METHODS + ("load_halves", "compare_exchange") \
                and kind != want:
            out.append(Violation(
                path, line_no, "mo-site-match",
                f"MSQ_MO('{site}') labels a {method}() ({want}), but its row "
                f"is a k{kind}"))


def check_no_volatile(path, lines, out):
    for i, line in enumerate(lines):
        code = strip_comment(line)
        if VOLATILE_RE.search(code) and not ASM_RE.search(code):
            out.append(Violation(
                path, i + 1, "no-volatile",
                "volatile is not a synchronization primitive; use "
                "std::atomic with an explicit order"))


def lint_file(path):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return [Violation(path, 0, "io", str(e))]
    out = []
    check_explicit_order(path, lines, out)
    check_relaxed_justified(path, lines, out)
    check_relaxed_proof(path, lines, out)
    check_aligned_atomics(path, lines, out)
    check_no_volatile(path, lines, out)
    check_mo_sites(path, lines, out)
    return out


def iter_sources(paths):
    for p in paths:
        if os.path.isfile(p):
            yield p
            continue
        for root, dirs, files in os.walk(p):
            dirs[:] = [d for d in dirs if d not in ("build", ".git")]
            for name in sorted(files):
                if name.endswith((".hpp", ".cpp", ".h", ".cc")):
                    yield os.path.join(root, name)


# --- self-test ---------------------------------------------------------------

GOOD_SNIPPET = """
#include <atomic>
struct Ok {
  // relaxed: monotone counter, read only after join
  void hit() { n_.fetch_add(1, std::memory_order_relaxed); }
  bool claim(bool e) {
    return b_.compare_exchange_strong(e, true, std::memory_order_acq_rel,
                                      std::memory_order_acquire);
  }
  int peek() const { return n_.load(std::memory_order_acquire); }
  alignas(64) std::atomic<int> n_{0};
  // share-ok: padded as a group with n_ above
  std::atomic<bool> b_{false};
};
static inline void pause() { asm volatile("pause"); }
"""

# Fixtures for the relaxed-proof rule must "live" under src/queues/ (the
# rule is scoped); lint_text fakes the path.
GOOD_PROOF_SNIPPET = """
#include <atomic>
struct OkProof {
  // relaxed: E9 failure retries via the acquire reload
  // (proof: mo-sweep:ms.E9.link_cas)
  int a() { return g.load(std::memory_order_relaxed); }
  // relaxed: covered by the directed sweep test (proof: test:tools/atomics_lint.py)
  int b() { return g.load(std::memory_order_relaxed); }
  // relaxed: ^
  int c() { return g.load(std::memory_order_relaxed); }
  alignas(64) std::atomic<int> g{0};
};
"""

BAD_PROOF_SNIPPETS = {
    "missing proof": """
#include <atomic>
struct Bad {
  // relaxed: private until the CAS publishes it
  int f() { return g.load(std::memory_order_relaxed); }
  alignas(64) std::atomic<int> g{0};
};
""",
    "unknown mo-sweep site": """
#include <atomic>
struct Bad {
  // relaxed: justified (proof: mo-sweep:ms.E99.no_such_site)
  int f() { return g.load(std::memory_order_relaxed); }
  alignas(64) std::atomic<int> g{0};
};
""",
    "nonexistent proof test": """
#include <atomic>
struct Bad {
  // relaxed: justified (proof: test:tests/no_such_test.cpp)
  int f() { return g.load(std::memory_order_relaxed); }
  alignas(64) std::atomic<int> g{0};
};
""",
}

BAD_SNIPPETS = {
    "explicit-order": """
#include <atomic>
std::atomic<int> g{0};  // share-ok: self-test fixture
int implicit_seq_cst() { return g.load(); }
""",
    "justified-relaxed": """
#include <atomic>
alignas(64) std::atomic<int> g{0};
int bare_relaxed() { return g.load(std::memory_order_relaxed); }
""",
    "aligned-shared-atomics": """
#include <atomic>
struct Shared {
  std::atomic<int> hot{0};
};
int f(Shared& s) { return s.hot.load(std::memory_order_acquire); }
""",
    "no-volatile": """
volatile int spin_flag = 0;
""",
    "aligned-shared-atomics (seam)": """
#include "port/atomic.hpp"
struct Shared {
  msq::port::Atomic<int> hot{0};
};
""",
}

# Rule 5 fixtures, checked against a fixed two-row table.
FIXTURE_ROWS = {"q.tail_faa": ("Rmw", "AcqRel"), "q.head_load": ("Load", "Acquire")}

GOOD_MO_SNIPPET = """
std::uint64_t f() {
  head_.load(MSQ_MO("q.head_load", std::memory_order_acquire));
  return tail_.fetch_add(1, MSQ_MO("q.tail_faa", std::memory_order_acq_rel));
}
"""

BAD_MO_SNIPPETS = {
    "unknown site": """
int f() { return head_.load(MSQ_MO("q.no_such_site", std::memory_order_acquire)); }
""",
    "mismatched order": """
int f() { return head_.load(MSQ_MO("q.head_load", std::memory_order_relaxed)); }
""",
    "mismatched kind": """
void f() { head_.store(1, MSQ_MO("q.head_load", std::memory_order_acquire)); }
""",
    "non-literal order": """
int f(std::memory_order o) { return head_.load(MSQ_MO("q.head_load", o)); }
""",
}


def lint_text(name, text):
    out = []
    lines = text.splitlines()
    check_explicit_order(name, lines, out)
    check_relaxed_justified(name, lines, out)
    check_relaxed_proof(name, lines, out)
    check_aligned_atomics(name, lines, out)
    check_no_volatile(name, lines, out)
    return out


def self_test():
    failures = []
    good = lint_text("good.hpp", GOOD_SNIPPET)
    if good:
        failures.append("clean snippet flagged: " +
                        "; ".join(str(v) for v in good))
    for name, snippet in BAD_SNIPPETS.items():
        rule = name.split(" ")[0]
        got = lint_text(f"bad_{rule}.hpp", snippet)
        if not any(v.rule == rule for v in got):
            failures.append(f"seeded {rule} violation NOT detected")
        unexpected = [v for v in got if v.rule != rule]
        if unexpected:
            failures.append(f"bad_{rule} also tripped: " +
                            "; ".join(str(v) for v in unexpected))
    good_proof = lint_text("src/queues/good_proof.hpp", GOOD_PROOF_SNIPPET)
    if good_proof:
        failures.append("clean proof snippet flagged: " +
                        "; ".join(str(v) for v in good_proof))
    for name, snippet in BAD_PROOF_SNIPPETS.items():
        got = lint_text("src/queues/bad_proof.hpp", snippet)
        if not any(v.rule == "relaxed-proof" for v in got):
            failures.append(f"seeded relaxed-proof violation ({name}) "
                            f"NOT detected")
        unexpected = [v for v in got if v.rule != "relaxed-proof"]
        if unexpected:
            failures.append(f"bad proof snippet ({name}) also tripped: " +
                            "; ".join(str(v) for v in unexpected))
    good_mo = []
    check_mo_sites("good_mo.hpp", GOOD_MO_SNIPPET.splitlines(), good_mo,
                   FIXTURE_ROWS)
    if good_mo:
        failures.append("clean MSQ_MO snippet flagged: " +
                        "; ".join(str(v) for v in good_mo))
    for name, snippet in BAD_MO_SNIPPETS.items():
        got = []
        check_mo_sites("bad_mo.hpp", snippet.splitlines(), got, FIXTURE_ROWS)
        if not any(v.rule == "mo-site-match" for v in got):
            failures.append(f"seeded mo-site-match violation ({name}) "
                            f"NOT detected")
    for f in failures:
        print(f"self-test FAIL: {f}", file=sys.stderr)
    if not failures:
        print("self-test ok: clean snippets pass, all 5 seeded rule "
              "violations, all 3 seeded proof violations and all 4 seeded "
              "MSQ_MO violations detected")
    return 1 if failures else 0


def main(argv):
    args = argv[1:]
    if "--self-test" in args:
        return self_test()
    paths = args or ["src"]
    violations = []
    n_files = 0
    for path in iter_sources(paths):
        n_files += 1
        violations += lint_file(path)
    for v in violations:
        print(f"error: {v}", file=sys.stderr)
    if not violations:
        print(f"ok: {n_files} file(s) pass the atomics lint")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
