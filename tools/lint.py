#!/usr/bin/env python3
"""Repo-specific lint pass for rules clang-tidy cannot express.

Checks (all on by default; each has a flag to run it alone):

  --format-check   Formatting: runs clang-format -n --Werror when the binary
                   is available; always enforces the built-in fallback rules
                   (80-column limit measured in characters, no tabs, no
                   trailing whitespace, file ends with exactly one newline).
  --banned         Banned constructs: std::rand/srand/rand() (the repo's Rng
                   owns all randomness), time(nullptr)/time(NULL)/
                   std::time(0) seeds (runs must be reproducible), and
                   usleep/sleep_for in src/ outside tests (hot paths block
                   on condition variables, never timed sleeps).
  --check-ratchet  TYCOS_CHECK ratchet: TYCOS_CHECK aborts the process, so
                   recoverable conditions must go through Status/Result<>
                   factories instead. Existing call sites are grandfathered
                   per file; a file may reduce its count but never grow it,
                   and new files start at zero.
  --run-context    Cancellation plumbing: every src/search/*.cc that accepts
                   a RunContext must either poll ShouldStop() or hand the
                   context to a callee that does. A search loop that ignores
                   its RunContext silently loses deadline/cancel support.
  --simd-hygiene   SIMD containment: x86 intrinsics (immintrin.h /
                   x86intrin.h includes, _mm* calls, __m128d/__m256d types)
                   may appear only in src/common/simd.h and simd.cc. Every
                   other file calls the portable tycos::simd wrappers, so
                   the scalar build and future ISAs stay a one-file change.
  --jobs-io        Durable-job I/O discipline: raw file I/O in src/jobs/
                   AND src/service/ is confined to checkpoint.cc (the one
                   audited code path — the in-process service must not grow
                   ad-hoc persistence), and there every
                   fopen/fwrite/fflush/fclose/fsync/rename
                   return value must be checked — a silently failed
                   checkpoint write would corrupt crash recovery. The
                   '.survivors' path suffix is likewise confined to
                   checkpoint.{h,cc} (SurvivorPathFor + the load/save
                   functions are the only survivor-file code path).
  --mutex-annotations  Static-concurrency ratchet: bare std::mutex /
                   std::lock_guard / std::unique_lock /
                   std::condition_variable (and friends) are banned in src/
                   outside common/annotations.h. Use the annotated
                   tycos::Mutex / MutexLock / CondVar so the Clang
                   -Wthread-safety analysis (lint preset) verifies every
                   guarded member and locking function at compile time.
                   std::atomic, std::once_flag/call_once and std::thread
                   stay allowed — the analysis covers lock-guarded state,
                   not lock-free code.
  --mutex-selftest Verifies the --mutex-annotations check itself: plants a
                   scratch file containing a bare std::mutex, asserts the
                   check flags it, and asserts a clean file passes.
  --tidy           Runs clang-tidy over src/ using build/compile_commands.json
                   when both the binary and the database exist; otherwise
                   prints a notice and succeeds (the CI lint job installs
                   clang-tidy; local containers may not have it).

Exit code 0 when every selected check passes, 1 otherwise.
"""

import argparse
import pathlib
import re
import shutil
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

SOURCE_DIRS = ("src", "tests", "bench", "examples")
SOURCE_SUFFIXES = (".cc", ".h", ".cpp")

MAX_COLUMNS = 80

# TYCOS_CHECK call sites allowed per file (src/common/check.h is the
# definition site and exempt). Lower a count when you convert a call site
# to a Status/Result<> factory; never raise one. New files are not listed
# and therefore start at zero.
CHECK_RATCHET_BASELINE = {
    "src/baselines/amic.cc": 1,
    "src/baselines/mass.cc": 4,
    "src/baselines/matrix_profile.cc": 3,
    "src/baselines/pcc_search.cc": 2,
    "src/common/math.cc": 2,
    "src/common/status.h": 4,
    "src/core/time_series.cc": 3,
    "src/core/time_series.h": 3,
    "src/core/window.cc": 5,
    "src/datagen/energy_sim.cc": 2,
    "src/datagen/relations.cc": 7,
    "src/datagen/smart_city_sim.cc": 2,
    "src/fft/fft.cc": 5,
    "src/fft/sliding_dot.cc": 5,
    "src/knn/brute_knn.cc": 4,
    "src/knn/grid_index.cc": 4,
    "src/knn/kd_tree.cc": 4,
    "src/mi/cmi.cc": 6,
    "src/mi/entropy.cc": 1,
    "src/mi/histogram_mi.cc": 1,
    "src/mi/incremental_ksg.cc": 3,
    "src/mi/ksg.cc": 2,
    "src/mi/pearson.cc": 1,
    "src/search/brute_force_search.cc": 1,
    "src/search/lahc.cc": 3,
    "src/search/pairwise.cc": 3,
    "src/search/significance.cc": 1,
    "src/search/streaming.cc": 1,
    "src/search/top_k.cc": 1,
    "src/search/tycos.cc": 1,
}
CHECK_RATCHET_EXEMPT = {"src/common/check.h"}

BANNED_PATTERNS = [
    (re.compile(r"\bstd::rand\b|(?<![_\w])srand\s*\(|(?<![_\w:.])rand\s*\(\)"),
     "use tycos::Rng, not the C PRNG (non-reproducible, global state)"),
    (re.compile(r"\btime\s*\(\s*(nullptr|NULL|0)\s*\)"),
     "wall-clock seeds break reproducibility; thread seeds through params"),
]
# Timed sleeps are banned in src/ only; tests may pace fault injection.
BANNED_SRC_ONLY = [
    (re.compile(r"\bsleep_for\b|\busleep\s*\("),
     "hot paths wait on condition variables, not timed sleeps"),
]


def source_files():
    for d in SOURCE_DIRS:
        root = REPO / d
        if not root.is_dir():
            continue
        for f in sorted(root.rglob("*")):
            if f.suffix in SOURCE_SUFFIXES:
                yield f


def rel(path):
    return path.relative_to(REPO).as_posix()


def strip_comments_and_strings(text):
    """Crude but line-preserving removal of comments and string literals so
    banned-pattern checks do not fire on prose."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            seg = text[i:n] if j < 0 else text[i:j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = n if j < 0 else j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(" " * (min(j, n - 1) - i + 1))
            i = min(j, n - 1) + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def check_format(errors):
    clang_format = shutil.which("clang-format")
    if clang_format:
        files = [str(f) for f in source_files()]
        proc = subprocess.run(
            [clang_format, "--dry-run", "--Werror", "--style=file"] + files,
            capture_output=True, text=True)
        if proc.returncode != 0:
            errors.append("clang-format: tree is not formatted "
                          "(run clang-format -i --style=file on the files "
                          "below)\n" + proc.stderr.strip())
    else:
        print("lint: clang-format not found; running built-in format "
              "checks only")
    for f in source_files():
        text = f.read_text(encoding="utf-8")
        if text and not text.endswith("\n"):
            errors.append(f"{rel(f)}: missing final newline")
        if text.endswith("\n\n"):
            errors.append(f"{rel(f)}: trailing blank line at end of file")
        for lineno, line in enumerate(text.splitlines(), 1):
            if len(line) > MAX_COLUMNS:
                errors.append(f"{rel(f)}:{lineno}: line is {len(line)} chars "
                              f"(limit {MAX_COLUMNS})")
            if "\t" in line:
                errors.append(f"{rel(f)}:{lineno}: tab character")
            if line != line.rstrip():
                errors.append(f"{rel(f)}:{lineno}: trailing whitespace")


def check_banned(errors):
    for f in source_files():
        relf = rel(f)
        in_src = relf.startswith("src/")
        code = strip_comments_and_strings(f.read_text(encoding="utf-8"))
        rules = BANNED_PATTERNS + (BANNED_SRC_ONLY if in_src else [])
        for lineno, line in enumerate(code.splitlines(), 1):
            for pattern, why in rules:
                if pattern.search(line):
                    errors.append(f"{relf}:{lineno}: banned construct "
                                  f"({why})")


def check_ratchet(errors):
    pattern = re.compile(r"\bTYCOS_CHECK")
    for f in source_files():
        relf = rel(f)
        if not relf.startswith("src/") or relf in CHECK_RATCHET_EXEMPT:
            continue
        count = len(pattern.findall(
            strip_comments_and_strings(f.read_text(encoding="utf-8"))))
        allowed = CHECK_RATCHET_BASELINE.get(relf, 0)
        if count > allowed:
            errors.append(
                f"{relf}: {count} TYCOS_CHECK call sites, ratchet allows "
                f"{allowed} — return a Status/Result<> error instead of "
                f"aborting, or (for a genuine new internal invariant) lower "
                f"another file's count and update CHECK_RATCHET_BASELINE "
                f"with justification")


def check_run_context(errors):
    search = REPO / "src" / "search"
    for f in sorted(search.glob("*.cc")):
        code = strip_comments_and_strings(f.read_text(encoding="utf-8"))
        if "RunContext&" not in code:
            continue
        polls = "ShouldStop(" in code
        # Delegation: the context is forwarded to a callee (Run(ctx),
        # ParallelFor(..., ctx, ...), helper(..., ctx)).
        delegates = re.search(r"[(,]\s*ctx\s*[),]", code) is not None
        if not (polls or delegates):
            errors.append(
                f"{rel(f)}: accepts a RunContext but neither polls "
                f"ShouldStop() nor forwards ctx to a callee — deadlines and "
                f"cancellation are silently ignored")


SIMD_ALLOWED = {"src/common/simd.h", "src/common/simd.cc"}
SIMD_TOKEN = re.compile(
    r"#\s*include\s*[<\"](?:immintrin|x86intrin|xmmintrin|emmintrin|"
    r"smmintrin|nmmintrin|avx2intrin)\.h[>\"]"
    r"|\b_mm(?:256|512)?_\w+\s*\("
    r"|\b__m(?:128|256|512)[di]?\b")


def check_simd_hygiene(errors):
    """Raw x86 intrinsics are confined to src/common/simd.{h,cc}; everything
    else must go through the portable tycos::simd wrappers."""
    for f in source_files():
        relf = rel(f)
        if relf in SIMD_ALLOWED:
            continue
        code = strip_comments_and_strings(f.read_text(encoding="utf-8"))
        for lineno, line in enumerate(code.splitlines(), 1):
            if SIMD_TOKEN.search(line):
                errors.append(
                    f"{relf}:{lineno}: raw x86 intrinsic outside "
                    f"src/common/simd.{{h,cc}} — add a portable wrapper to "
                    f"tycos::simd (with a scalar twin and a simd_test case) "
                    f"and call that instead")


SURVIVORS_ALLOWED = {"src/jobs/checkpoint.h", "src/jobs/checkpoint.cc"}


def check_jobs_io(errors):
    """Raw file I/O in src/jobs/ and src/service/ stays inside
    checkpoint.cc, and there every
    I/O call's return value must be consumed by an expression (assigned,
    compared, returned) — never discarded as a bare statement. The
    '.survivors' suffix (the persisted prefilter survivor list) is confined
    to checkpoint.{h,cc} the same way."""
    # Survivor-path confinement: scan raw lines minus // comments, because
    # the suffix we are hunting lives inside string literals (which
    # strip_comments_and_strings would blank out).
    for f in source_files():
        relf = rel(f)
        if not relf.startswith("src/") or relf in SURVIVORS_ALLOWED:
            continue
        for lineno, line in enumerate(
                f.read_text(encoding="utf-8").splitlines(), 1):
            if '".survivors"' in line.split("//")[0]:
                errors.append(
                    f"{relf}:{lineno}: '.survivors' path outside the "
                    f"checkpoint module — use jobs::SurvivorPathFor and "
                    f"Load/SaveSurvivorList so survivor-file I/O stays in "
                    f"its one audited translation unit")
    io_token = re.compile(
        r"\b(?:std::)?(?:fopen|fwrite|fread|fflush|fclose|fsync)\s*\("
        r"|\bstd::(?:rename|remove)\s*\("
        r"|\bstd::o?i?fstream\b")
    unchecked = re.compile(
        r"^\s*(?:\(void\)\s*)?(?:std::)?"
        r"(?:fwrite|fread|fflush|fclose|fsync|rename|remove)\s*\(")
    for f in source_files():
        relf = rel(f)
        if not (relf.startswith("src/jobs/")
                or relf.startswith("src/service/")):
            continue
        code = strip_comments_and_strings(f.read_text(encoding="utf-8"))
        if relf != "src/jobs/checkpoint.cc":
            for lineno, line in enumerate(code.splitlines(), 1):
                if io_token.search(line):
                    errors.append(
                        f"{relf}:{lineno}: raw file I/O outside "
                        f"checkpoint.cc — route durable-job and service "
                        f"persistence through the checkpoint layer so every "
                        f"operation is checked")
            continue
        lines = code.splitlines()
        for lineno, line in enumerate(lines, 1):
            if not unchecked.match(line):
                continue
            # A call starting a continuation line of a checked expression
            # (previous code line ends mid-expression) is fine; a call
            # starting a fresh statement is a discarded result.
            prev = ""
            for back in range(lineno - 2, -1, -1):
                if lines[back].strip():
                    prev = lines[back].rstrip()
                    break
            if prev.endswith(("=", "&&", "||", "(", ",", "?", ":", "+")):
                continue
            errors.append(
                f"{relf}:{lineno}: unchecked checkpoint I/O call — test "
                f"the return value and surface a Status; crash recovery "
                f"depends on detecting every failed write")


MUTEX_ALLOWED = {"src/common/annotations.h"}
# std::call_once / std::once_flag / std::atomic / std::thread stay allowed:
# thread-safety analysis covers lock-guarded state, not lock-free code.
MUTEX_TOKEN = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable(?:_any)?)\b")


def check_mutex_annotations(errors, files=None):
    """Bare standard mutex primitives are banned in src/ outside
    common/annotations.h. The annotated tycos::Mutex / MutexLock / CondVar
    wrappers are the only locking vocabulary, so the Clang -Wthread-safety
    analysis in the lint preset verifies every guarded member and locking
    function at compile time — a lock taken through std::mutex would be
    invisible to it."""
    if files is None:
        files = [(rel(f), f.read_text(encoding="utf-8"))
                 for f in source_files()]
    for relf, text in files:
        if not relf.startswith("src/") or relf in MUTEX_ALLOWED:
            continue
        code = strip_comments_and_strings(text)
        for lineno, line in enumerate(code.splitlines(), 1):
            if MUTEX_TOKEN.search(line):
                errors.append(
                    f"{relf}:{lineno}: bare standard mutex primitive — use "
                    f"tycos::Mutex / MutexLock / CondVar from "
                    f"common/annotations.h so -Wthread-safety can verify "
                    f"the locking discipline")


def mutex_selftest():
    """Proves the --mutex-annotations check fires: a planted bare std::mutex
    must be flagged, and a clean file must pass."""
    planted = [("src/scratch_selftest.cc",
                "#include <mutex>\nstd::mutex mu;\n"
                "void f() { std::lock_guard<std::mutex> lock(mu); }\n")]
    errs = []
    check_mutex_annotations(errs, files=planted)
    if len(errs) < 2:
        print("lint: mutex-annotations self-test FAILED — planted "
              "std::mutex/lock_guard not flagged")
        return 1
    clean = []
    check_mutex_annotations(
        clean, files=[("src/scratch_selftest.cc",
                       "#include \"common/annotations.h\"\n"
                       "tycos::Mutex mu;\n")])
    if clean:
        print("lint: mutex-annotations self-test FAILED — clean file "
              "flagged:\n  " + "\n  ".join(clean))
        return 1
    print("lint: mutex-annotations self-test OK")
    return 0


def check_tidy(errors):
    clang_tidy = shutil.which("clang-tidy")
    if not clang_tidy:
        print("lint: clang-tidy not found; skipping (CI installs it)")
        return
    db = None
    for candidate in ("build", "build-lint"):
        if (REPO / candidate / "compile_commands.json").exists():
            db = REPO / candidate
            break
    if db is None:
        print("lint: no compile_commands.json found; configure a build "
              "first (cmake --preset default); skipping clang-tidy")
        return
    files = [str(f) for f in source_files()
             if rel(f).startswith("src/") and f.suffix == ".cc"]
    proc = subprocess.run([clang_tidy, "-p", str(db), "--quiet"] + files,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        errors.append("clang-tidy reported diagnostics:\n" +
                      (proc.stdout.strip() or proc.stderr.strip()))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--format-check", action="store_true")
    parser.add_argument("--banned", action="store_true")
    parser.add_argument("--check-ratchet", action="store_true")
    parser.add_argument("--run-context", action="store_true")
    parser.add_argument("--simd-hygiene", action="store_true")
    parser.add_argument("--jobs-io", action="store_true")
    parser.add_argument("--mutex-annotations", action="store_true")
    parser.add_argument("--mutex-selftest", action="store_true")
    parser.add_argument("--tidy", action="store_true")
    args = parser.parse_args()

    if args.mutex_selftest:
        return mutex_selftest()

    selected = {k for k, v in vars(args).items() if v}
    run_all = not selected

    errors = []
    if run_all or "format_check" in selected:
        check_format(errors)
    if run_all or "banned" in selected:
        check_banned(errors)
    if run_all or "check_ratchet" in selected:
        check_ratchet(errors)
    if run_all or "run_context" in selected:
        check_run_context(errors)
    if run_all or "simd_hygiene" in selected:
        check_simd_hygiene(errors)
    if run_all or "jobs_io" in selected:
        check_jobs_io(errors)
    if run_all or "mutex_annotations" in selected:
        check_mutex_annotations(errors)
    if run_all or "tidy" in selected:
        check_tidy(errors)

    if errors:
        print(f"lint: {len(errors)} problem(s):")
        for e in errors:
            print(f"  {e}")
        return 1
    print("lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
