#!/usr/bin/env bash
# Doc-consistency check (wired into CI):
#
#   1. The committed docs/study/ pages must be byte-identical to what
#      `grs_bench study` regenerates — for --threads 1 and 8, so the check
#      also re-proves the engine's thread-count determinism on the full study.
#   2. Every `--flag` a doc shows on a grs_cli / grs_bench / grs_fuzz command
#      line must exist in that binary's --help output (no
#      documented-but-removed flags).
#   3. Every bench registered in `grs_bench --list` must be mentioned in the
#      docs, so the CLI surface and the documentation stay in sync.
#   4. Every repo path that README.md, docs/*.md or a comment under src/,
#      bench/ or examples/ names (`src/...`, `docs/...`, `scripts/...`,
#      `bench/...`, `tests/...`, `examples/...`, `perfbench/...` or a root
#      `*.md`) must exist. ROADMAP.md and CHANGES.md are history and may name
#      files that are gone, so they are not read.
#
# Usage: scripts/check_docs.sh  (from the repo root, after building ./build)
# Override the binaries with GRS_BENCH / GRS_CLI / GRS_FUZZ. The two study
# regenerations share one content-addressed result cache
# (GRS_RESULT_CACHE_DIR, default build/result-cache — CI persists it between
# runs): the first pass fills it, the second must be served from lookups
# alone, one per distinct machine (points that differ only in the sharing
# threshold and resolve to the same launch plan share one key, one entry
# and one simulation), re-proving both the engine's thread-count
# determinism and that cached rows are byte-identical to simulated ones. A
# final verify-mode pass re-simulates each machine once, checks each
# entry's stats against it, and fails on any stats diff against the store
# or on a simulation or verified count other than the study's pinned
# distinct-machine count.
set -euo pipefail

BENCH=${GRS_BENCH:-build/grs_bench}
CLI=${GRS_CLI:-build/grs_cli}
FUZZ=${GRS_FUZZ:-build/grs_fuzz}
CACHE_DIR=${GRS_RESULT_CACHE_DIR:-build/result-cache}
fail=0

# --- 1. docs/study regeneration (cold then warm, one shared cache) -----------
for threads in 1 8; do
  tmp=$(mktemp -d)
  stats=$(mktemp)
  start=$(date +%s.%N)
  GRS_STUDY_DIR="$tmp" "$BENCH" study --threads "$threads" \
    --cache "$CACHE_DIR" >/dev/null 2>"$stats"
  elapsed=$(date +%s.%N | awk -v s="$start" '{printf "%.2f", $1 - s}')
  echo "study --threads $threads: ${elapsed}s, $(grep 'cache:' "$stats" | sed 's/^.*cache: //')"
  if [ "$threads" = 8 ] && ! grep -q 'cache: 509 hits, 0 misses' "$stats"; then
    echo "error: the warm study pass did not read 509 hits, 0 misses: one lookup" >&2
    echo "       per distinct machine, all served by the store filled above" >&2
    fail=1
  fi
  rm -f "$stats"
  if ! diff -ru docs/study "$tmp"; then
    echo "error: committed docs/study differs from a --threads $threads regeneration;" >&2
    echo "       run ./build/grs_bench study and commit the result" >&2
    fail=1
  fi
  rm -rf "$tmp"
done

# --- 1b. verify mode over the whole warm store --------------------------------
tmp=$(mktemp -d)
if ! GRS_STUDY_DIR="$tmp" "$BENCH" study --threads 8 \
    --cache "$CACHE_DIR" --cache-mode verify --prof "$tmp/prof.json" >/dev/null \
    2>"$tmp/verify.log"; then
  cat "$tmp/verify.log" >&2
  echo "error: a cached study entry failed verify-mode re-simulation (stats diff" >&2
  echo "       between the store and a fresh simulate()); delete $CACHE_DIR" >&2
  fail=1
elif ! grep -q ' 509 verified' "$tmp/verify.log"; then
  cat "$tmp/verify.log" >&2
  echo "error: the verify pass did not report 509 verified, one per distinct machine" >&2
  fail=1
else
  echo "study verify: $(grep 'cache:' "$tmp/verify.log" | sed 's/^.*cache: //')"
  sims=$(python3 -c 'import json, sys
print(sum(p["calls"] for p in json.load(open(sys.argv[1]))["phases"]
          if p["name"] == "simulate"))' "$tmp/prof.json")
  if [ "$sims" != 509 ]; then
    echo "error: the verify pass ran $sims simulations; the 1152-point study has 509" >&2
    echo "       distinct machines. If the study grid changed, update 509 here" >&2
    fail=1
  fi
fi
rm -rf "$tmp"

# --- 2. CLI flag drift --------------------------------------------------------
cli_help=$("$CLI" --help)
bench_help=$("$BENCH" --help)
fuzz_help=$("$FUZZ" --help)
drift=$(python3 - "$cli_help" "$bench_help" "$fuzz_help" README.md docs/*.md <<'EOF'
import re, sys
cli_help, bench_help, fuzz_help = sys.argv[1], sys.argv[2], sys.argv[3]
ok = True
for path in sys.argv[4:]:
    for lineno, line in enumerate(open(path, encoding="utf-8"), 1):
        helps = []
        if "grs_cli" in line:
            helps.append(("grs_cli", cli_help))
        if "grs_bench" in line:
            helps.append(("grs_bench", bench_help))
        if "grs_fuzz" in line:
            helps.append(("grs_fuzz", fuzz_help))
        if not helps:
            continue
        for flag in set(re.findall(r"--[a-z][a-z-]*", line)):
            if not any(re.search(re.escape(flag) + r"\b", h) for _, h in helps):
                names = "/".join(n for n, _ in helps)
                print(f"{path}:{lineno}: documents {names} flag {flag} "
                      f"missing from --help")
                ok = False
sys.exit(0 if ok else 1)
EOF
) || { printf '%s\n' "$drift" >&2; echo "error: documented flags drifted from --help" >&2; fail=1; }

# --- 2b. shared, observability + profiling flags must exist in both helps ----
# The flag-drift check above only catches flags the docs mention; this pins the
# observability/perf surface itself so it cannot be dropped from either binary.
for flag in --exec-mode --trace --timeline --timeline-interval --manifest \
            --prof --prof-folded --progress; do
  for tool in grs_cli grs_bench; do
    help_text=$cli_help
    [ "$tool" = grs_bench ] && help_text=$bench_help
    if ! grep -qe "^  $flag " <<<"$help_text"; then
      echo "error: $tool --help no longer documents $flag (src/runner/cli_options.cc)" >&2
      fail=1
    fi
  done
done

# --- 3. every registered bench is documented ----------------------------------
while read -r name _; do
  if ! grep -rqe "$name" README.md docs/*.md; then
    echo "error: bench '$name' from grs_bench --list is not mentioned in README.md or docs/" >&2
    fail=1
  fi
done < <("$BENCH" --list)

# --- 4. no dangling file references -------------------------------------------
python3 - <<'EOF' || { echo "error: a doc or comment names a file that does not exist" >&2; fail=1; }
import os, re, sys

# A path starts at a top-level directory (a relative link's leading ../ is
# dropped) or is a root document named in capitals, such as README.md.
PATH = re.compile(r"(?<![\w./-])(?:\.\./)*((?:src|docs|scripts|bench|tests|examples|perfbench)/"
                  r"[\w./{},*-]*|[A-Z][A-Z0-9_]*\.md\b)")

def expand(path):  # src/obs/obs.{h,cc} -> src/obs/obs.h, src/obs/obs.cc
    m = re.search(r"\{([^{}]*)\}", path)
    if not m:
        return [path]
    return [p for alt in m.group(1).split(",")
            for p in expand(path[:m.start()] + alt + path[m.end():])]

def texts(path):  # (line number, text) of every line a path may appear in
    marker = None if path.endswith(".md") else "#" if path.endswith(".gkd") else "//"
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if marker is None:
                yield lineno, line
            elif marker in line:
                yield lineno, line[line.index(marker):]

files = ["README.md"] + sorted(os.path.join("docs", f) for f in os.listdir("docs")
                               if f.endswith(".md"))
for top in ("src", "bench", "examples"):
    for root, _, names in os.walk(top):
        files += sorted(os.path.join(root, n) for n in names)
ok = True
for path in files:
    for lineno, text in texts(path):
        for ref in PATH.findall(text):
            ref = ref.rstrip(".,")
            if "*" in ref:
                continue  # a glob, not a file
            for p in expand(ref):
                if not os.path.exists(p):
                    print(f"{path}:{lineno}: names {p}, which does not exist", file=sys.stderr)
                    ok = False
sys.exit(0 if ok else 1)
EOF

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "docs are consistent: study pages regenerate byte-identically (cached store"
echo "at $CACHE_DIR passes verify), no flag drift,"
echo "all $("$BENCH" --list | wc -l) benches documented, no dangling file references"
