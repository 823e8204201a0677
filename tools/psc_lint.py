#!/usr/bin/env python3
"""Project-invariant linter for the psc source tree.

Enforces the concurrency and observability conventions the compiler
cannot (see DESIGN.md §14):

  raw-sync       No raw std::mutex / std::shared_mutex / std::lock_guard /
                 std::unique_lock / std::scoped_lock / std::shared_lock /
                 std::condition_variable(_any) outside src/psc/sync/.
                 Everything locks through psc::sync so every mutex carries
                 thread-safety annotations and a deadlock-detecting rank.
  raw-clock      No std::this_thread::sleep_for/sleep_until and no raw
                 steady_clock/system_clock/high_resolution_clock ::now()
                 in solver code. Time belongs to psc::limits (deadlines)
                 and psc::obs (trace timestamps); sleeping in a solver
                 hides latency from both. Allowed in src/psc/sync/,
                 src/psc/limits/ and src/psc/obs/ only.
  metric-prefix  Every metric name passed to a PSC_OBS_* macro must carry
                 one of the subsystem prefixes registered in
                 tools/check_metrics_schema.py (KNOWN_PREFIXES), so a
                 typo'd name fails here instead of shipping an instrument
                 the schema check then rejects at runtime.
  detach         No std::thread::detach(): a detached thread outlives
                 every shutdown protocol in the tree (Engine::Drain, pool
                 joins) and turns clean process exit into a race.
  pool-ctor      No exec::ThreadPool construction outside src/psc/exec/.
                 The process has one executor: callers borrow
                 exec::SharedPool(threads), so no call spawns or joins
                 worker threads.

Waivers: append `// psc-lint: allow(<rule>)` to the offending line, with
a justification comment nearby. Waivers are themselves counted and
reported so they stay auditable.

Usage:
  psc_lint.py [--root DIR] [PATH...]        # default: src/ under --root
  psc_lint.py --compile-commands build/compile_commands.json
  psc_lint.py --fix-suggestions             # hints per finding
  psc_lint.py --self-test                   # run the embedded samples

Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

import argparse
import json
import os
import re
import sys

# Directories (relative to the source root) whose files may use raw
# synchronization primitives: the annotated wrappers themselves.
RAW_SYNC_ALLOWED = ("src/psc/sync/",)

# Directories whose files may read raw clocks or sleep: the sync layer
# (condition waits), the deadline/budget machinery, and the trace clock.
RAW_CLOCK_ALLOWED = ("src/psc/sync/", "src/psc/limits/", "src/psc/obs/")

RAW_SYNC_PATTERN = re.compile(
    r"std::(?:mutex|shared_mutex|timed_mutex|recursive_mutex"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock"
    r"|condition_variable(?:_any)?)\b")

RAW_CLOCK_PATTERN = re.compile(
    r"std::this_thread::sleep_(?:for|until)"
    r"|(?:steady_clock|system_clock|high_resolution_clock)::now\s*\(")

# PSC_OBS_COUNTER_ADD("name", ...), PSC_OBS_SPAN("name"), etc. — the
# first argument must be a string literal carrying a known prefix.
METRIC_MACRO_PATTERN = re.compile(
    r"PSC_OBS_(?:COUNTER_ADD|COUNTER_INC|GAUGE_SET|GAUGE_MAX"
    r"|HISTOGRAM_RECORD|SPAN)\s*\(\s*\"([^\"]*)\"")

DETACH_PATTERN = re.compile(r"\.\s*detach\s*\(\s*\)")

# Directories whose files may construct a ThreadPool: the executor itself.
POOL_CTOR_ALLOWED = ("src/psc/exec/",)

# `ThreadPool pool(n)` / `ThreadPool pool{n}`, a temporary
# `ThreadPool(n)`, `new ThreadPool`, make_unique/make_shared and
# optional<ThreadPool> (constructed through emplace). Pointers and
# references (`ThreadPool* pool`, `ThreadPool& pool`) do not match.
POOL_CTOR_PATTERN = re.compile(
    r"\bThreadPool\s+\w+\s*[({]"
    r"|(?<![~\w])ThreadPool\s*[({]"
    r"|\bnew\s+(?:\w+::)*ThreadPool\b"
    r"|\bmake_(?:unique|shared)\s*<\s*(?:\w+::)*ThreadPool\s*>"
    r"|\boptional\s*<\s*(?:\w+::)*ThreadPool\s*>")

WAIVER_PATTERN = re.compile(r"//\s*psc-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

SOURCE_EXTENSIONS = (".h", ".cc", ".cpp", ".hpp", ".cxx")

FIX_SUGGESTIONS = {
    "raw-sync": ("use psc::sync::Mutex/SharedMutex with sync::MutexLock/"
                 "ReaderLock/WriterLock and sync::CondVar "
                 "(src/psc/sync/mutex.h)"),
    "raw-clock": ("use obs::TraceNowMicros() for timestamps or "
                  "limits::Deadline for timeouts; sleeping in solver code "
                  "is never the answer"),
    "metric-prefix": ("register the subsystem prefix in "
                      "tools/check_metrics_schema.py KNOWN_PREFIXES or fix "
                      "the metric name"),
    "detach": ("keep the std::thread joinable and join it from the owner's "
               "destructor or shutdown path"),
    "pool-ctor": ("borrow the process-wide pool with "
                  "exec::SharedPool(threads) (src/psc/exec/thread_pool.h); "
                  "a null result means run the shards inline"),
}

RULES = ("raw-sync", "raw-clock", "metric-prefix", "detach", "pool-ctor")


def load_known_prefixes(root):
    """Parses KNOWN_PREFIXES out of check_metrics_schema.py so the two
    tools cannot drift apart."""
    path = os.path.join(root, "tools", "check_metrics_schema.py")
    try:
        text = open(path, "r", encoding="utf-8").read()
    except OSError as error:
        raise RuntimeError("cannot read %s: %s" % (path, error))
    match = re.search(r"KNOWN_PREFIXES\s*=\s*\(([^)]*)\)", text, re.DOTALL)
    if match is None:
        raise RuntimeError("KNOWN_PREFIXES tuple not found in %s" % path)
    prefixes = tuple(re.findall(r"\"([^\"]+)\"", match.group(1)))
    if not prefixes:
        raise RuntimeError("KNOWN_PREFIXES parsed empty from %s" % path)
    return prefixes


class Finding(object):
    def __init__(self, path, lineno, rule, message):
        self.path = path
        self.lineno = lineno
        self.rule = rule
        self.message = message

    def render(self, fix_suggestions):
        line = "%s:%d: [%s] %s" % (self.path, self.lineno, self.rule,
                                   self.message)
        if fix_suggestions:
            line += "\n    fix: " + FIX_SUGGESTIONS[self.rule]
        return line


def strip_line_comment(line):
    """Drops // comments (string-literal-naive but fine for our idiom:
    the patterns we match never appear inside string literals except in
    this linter's own self-test, which is not scanned)."""
    index = line.find("//")
    return line if index < 0 else line[:index]


def relative_to(path, root):
    rel = os.path.relpath(os.path.abspath(path), os.path.abspath(root))
    return rel.replace(os.sep, "/")


def lint_lines(rel_path, lines, known_prefixes):
    """Yields (Finding, waived) tuples for one file's lines."""
    in_block_comment = False
    sync_exempt = any(rel_path.startswith(d) for d in RAW_SYNC_ALLOWED)
    clock_exempt = any(rel_path.startswith(d) for d in RAW_CLOCK_ALLOWED)
    pool_exempt = any(rel_path.startswith(d) for d in POOL_CTOR_ALLOWED)
    for lineno, raw_line in enumerate(lines, start=1):
        waiver = WAIVER_PATTERN.search(raw_line)
        waived_rules = set()
        if waiver is not None:
            waived_rules = {r.strip() for r in waiver.group(1).split(",")}
        line = raw_line
        # Crude block-comment tracking: enough for the tree's /// style.
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block_comment = False
        start = line.find("/*")
        if start >= 0:
            end = line.find("*/", start + 2)
            if end < 0:
                in_block_comment = True
                line = line[:start]
            else:
                line = line[:start] + line[end + 2:]
        code = strip_line_comment(line)

        def emit(rule, message):
            finding = Finding(rel_path, lineno, rule, message)
            return (finding, rule in waived_rules)

        if not sync_exempt:
            match = RAW_SYNC_PATTERN.search(code)
            if match is not None:
                yield emit("raw-sync",
                           "raw synchronization primitive %r outside "
                           "psc/sync/" % match.group(0))
        if not clock_exempt:
            match = RAW_CLOCK_PATTERN.search(code)
            if match is not None:
                yield emit("raw-clock",
                           "raw clock/sleep %r in solver code"
                           % match.group(0).strip())
        for match in METRIC_MACRO_PATTERN.finditer(code):
            name = match.group(1)
            if not any(name.startswith(p) for p in known_prefixes):
                yield emit("metric-prefix",
                           "metric name %r outside the registered prefixes "
                           "(%s)" % (name, ", ".join(p.rstrip(".")
                                                     for p in known_prefixes)))
        match = DETACH_PATTERN.search(code)
        if match is not None and "thread" in code:
            yield emit("detach", "detached thread")
        if not pool_exempt:
            match = POOL_CTOR_PATTERN.search(code)
            if match is not None:
                yield emit("pool-ctor",
                           "ThreadPool constructed outside psc/exec/: %r"
                           % match.group(0).strip())


def collect_files(root, paths, compile_commands):
    files = []
    seen = set()

    def add(path):
        abspath = os.path.abspath(path)
        if abspath in seen:
            return
        seen.add(abspath)
        files.append(abspath)

    if compile_commands:
        try:
            commands = json.load(open(compile_commands, "r",
                                      encoding="utf-8"))
        except (OSError, ValueError) as error:
            raise RuntimeError("cannot load %s: %s"
                               % (compile_commands, error))
        for entry in commands:
            path = entry.get("file", "")
            if not os.path.isabs(path):
                path = os.path.join(entry.get("directory", ""), path)
            rel = relative_to(path, root)
            if rel.startswith("src/") and path.endswith(SOURCE_EXTENSIONS):
                add(path)
        # The database only lists translation units; scan headers too.
        paths = paths or [os.path.join(root, "src")]

    if not compile_commands and not paths:
        paths = [os.path.join(root, "src")]

    for path in paths or []:
        if os.path.isdir(path):
            for directory, _, names in sorted(os.walk(path)):
                for name in sorted(names):
                    if name.endswith(SOURCE_EXTENSIONS):
                        add(os.path.join(directory, name))
        elif os.path.isfile(path):
            add(path)
        else:
            raise RuntimeError("no such file or directory: %s" % path)
    return files


def run_lint(root, paths, compile_commands, fix_suggestions):
    known_prefixes = load_known_prefixes(root)
    files = collect_files(root, paths, compile_commands)
    if not files:
        print("psc_lint: no source files found", file=sys.stderr)
        return 2
    findings = []
    waived = 0
    for path in files:
        rel = relative_to(path, root)
        try:
            lines = open(path, "r", encoding="utf-8").read().splitlines()
        except OSError as error:
            print("psc_lint: cannot read %s: %s" % (path, error),
                  file=sys.stderr)
            return 2
        for finding, is_waived in lint_lines(rel, lines, known_prefixes):
            if is_waived:
                waived += 1
            else:
                findings.append(finding)
    for finding in findings:
        print(finding.render(fix_suggestions))
    summary = "psc_lint: %d file(s), %d finding(s)" % (len(files),
                                                       len(findings))
    if waived:
        summary += ", %d waived" % waived
    print(summary)
    return 1 if findings else 0


# --- self test ------------------------------------------------------------

SELF_TEST_SAMPLES = [
    # (relative path, line, expected rules)
    ("src/psc/foo/bar.cc", "std::mutex mu;", ["raw-sync"]),
    ("src/psc/foo/bar.cc", "std::lock_guard<std::mutex> l(mu);",
     ["raw-sync"]),
    ("src/psc/foo/bar.cc", "std::condition_variable cv;", ["raw-sync"]),
    ("src/psc/sync/mutex.h", "std::mutex mu_;", []),  # the wrapper itself
    ("src/psc/foo/bar.cc",
     "auto t = std::chrono::steady_clock::now();", ["raw-clock"]),
    ("src/psc/foo/bar.cc",
     "std::this_thread::sleep_for(std::chrono::seconds(1));",
     ["raw-clock"]),
    ("src/psc/limits/budget.cc",
     "auto t = std::chrono::steady_clock::now();", []),  # deadline code
    ("src/psc/obs/trace.cc",
     "auto t = std::chrono::steady_clock::now();", []),  # the trace clock
    ("src/psc/foo/bar.cc",
     'PSC_OBS_COUNTER_INC("exec.tasks_submitted");', []),
    ("src/psc/foo/bar.cc",
     'PSC_OBS_COUNTER_INC("bogus.tasks_submitted");', ["metric-prefix"]),
    ("src/psc/foo/bar.cc", 'PSC_OBS_SPAN("nope.span");',
     ["metric-prefix"]),
    ("src/psc/foo/bar.cc", "worker_thread.detach();", ["detach"]),
    ("src/psc/foo/bar.cc", "// std::mutex in a comment is fine", []),
    ("src/psc/foo/bar.cc",
     "std::mutex special;  // psc-lint: allow(raw-sync)", []),
    ("src/psc/foo/bar.cc", "sync::MutexLock lock(&mu_);", []),
    ("src/psc/foo/bar.cc", "exec::ThreadPool pool(threads);",
     ["pool-ctor"]),
    ("src/psc/foo/bar.cc",
     "batch_pool_ = std::make_unique<exec::ThreadPool>(4);", ["pool-ctor"]),
    ("src/psc/foo/bar.cc", "std::optional<exec::ThreadPool> pool;",
     ["pool-ctor"]),
    ("src/psc/foo/bar.cc", "auto* pool = new ThreadPool(width);",
     ["pool-ctor"]),
    ("src/psc/foo/bar.cc", "Run(exec::ThreadPool(2));", ["pool-ctor"]),
    ("src/psc/foo/bar.cc",
     "exec::ThreadPool* pool = exec::SharedPool(threads);", []),
    ("src/psc/foo/bar.cc", "void Run(exec::ThreadPool* pool);", []),
    ("src/psc/foo/bar.cc", "class ThreadPool;", []),
    ("src/psc/exec/thread_pool.cc",
     "if (pool == nullptr) pool = new ThreadPool(width);", []),  # the owner
]


def run_self_test(root):
    known_prefixes = load_known_prefixes(root)
    failures = 0
    for rel_path, line, expected in SELF_TEST_SAMPLES:
        got = sorted({finding.rule
                      for finding, is_waived in
                      lint_lines(rel_path, [line], known_prefixes)
                      if not is_waived})
        if got != sorted(expected):
            print("SELF-TEST FAIL %s: %r -> %r (want %r)"
                  % (rel_path, line, got, sorted(expected)),
                  file=sys.stderr)
            failures += 1
    # Every rule string used in waivers/suggestions must be a real rule.
    for rule in FIX_SUGGESTIONS:
        if rule not in RULES:
            print("SELF-TEST FAIL unknown rule %r" % rule, file=sys.stderr)
            failures += 1
    # --fix-suggestions rendering: every rule must produce a hint line.
    for rule in RULES:
        rendered = Finding("src/psc/foo/bar.cc", 1, rule, "sample").render(
            fix_suggestions=True)
        if "\n    fix: " not in rendered:
            print("SELF-TEST FAIL no fix suggestion rendered for %r" % rule,
                  file=sys.stderr)
            failures += 1
    if failures:
        print("psc_lint --self-test: %d failure(s)" % failures,
              file=sys.stderr)
        return 1
    print("psc_lint --self-test: %d sample(s) ok"
          % len(SELF_TEST_SAMPLES))
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="files or directories to lint "
                             "(default: <root>/src)")
    parser.add_argument("--root", default=None,
                        help="repository root (default: the directory "
                             "containing this script's parent)")
    parser.add_argument("--compile-commands", metavar="JSON",
                        help="lint the src/ files listed in a "
                             "compile_commands.json database")
    parser.add_argument("--fix-suggestions", action="store_true",
                        help="print a fix hint under every finding")
    parser.add_argument("--self-test", action="store_true",
                        help="check the linter against embedded samples")
    args = parser.parse_args(argv)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    try:
        if args.self_test:
            return run_self_test(root)
        return run_lint(root, args.paths, args.compile_commands,
                        args.fix_suggestions)
    except RuntimeError as error:
        print("psc_lint: %s" % error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
