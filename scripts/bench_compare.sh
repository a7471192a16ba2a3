#!/usr/bin/env bash
# bench_compare.sh — compare a fresh `go test -bench -benchmem` output
# against a pinned baseline. Usage:
#
#   scripts/bench_compare.sh <baseline.txt> <latest.txt>
#
# Fails when
#   * any benchmark present in both files regressed by more than
#     BENCH_MAX_REGRESSION_PCT percent in ns/op (averaged over repeated
#     runs), or
#   * any benchmark's allocs/op grew beyond the allocation gate
#     (base × (1 + BENCH_MAX_REGRESSION_PCT/100) + BENCH_MAX_ALLOC_GROWTH)
#     — the steady-state CP-ALS benches are pinned at 0 allocs/op, so a
#     hot-path allocation sneaking back in fails the build, or
#   * any benchmark present in the baseline is MISSING from the fresh run
#     (a silently deleted/renamed benchmark must not pass the gate) —
#     unless BENCH_ALLOW_MISSING=1 (set by bench.sh for partial
#     BENCH_PATTERN runs, where absence is expected).
#
# Benchmarks whose baseline rows carry no allocs/op column (pre-benchmem
# baselines) skip the allocation check. Names are matched without the -N
# suffix go test adds when GOMAXPROCS is N > 1, with a warning when the
# two files were recorded at different GOMAXPROCS.
#
# Environment knobs:
#   BENCH_MAX_REGRESSION_PCT  allowed ns/op (and relative allocs/op)
#                             regression percent                 (default 5)
#   BENCH_MAX_ALLOC_GROWTH    allowed absolute allocs/op growth on top of
#                             the relative allowance              (default 8)
#   BENCH_MIN_NSOP            benchmarks whose baseline ns/op is below this
#                             are too noisy at 1x iteration to compare and
#                             are skipped for the ns/op regression check
#                             (they still count for the missing and
#                             allocation checks)            (default 100000)
#   BENCH_ALLOW_MISSING       1 = downgrade missing benchmarks to a warning
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <baseline.txt> <latest.txt>" >&2
    exit 2
fi
BASE="$1"
CUR="$2"

# Records made by scripts/bench.sh open with "# cpu-features: ..." naming
# the kernel set that produced the numbers. Comparing across different
# kernel sets (AVX2 baseline vs purego run, or vice versa) is comparing
# different code — warn loudly rather than let a "regression" or
# "improvement" that is really a dispatch change slip through. Records
# without the stamp (pre-stamp baselines) skip the check.
basefeat="$(sed -n 's/^# cpu-features: //p' "$BASE" | head -n 1)"
curfeat="$(sed -n 's/^# cpu-features: //p' "$CUR" | head -n 1)"
if [ -n "$basefeat" ] && [ -n "$curfeat" ] && [ "$basefeat" != "$curfeat" ]; then
    echo "##################################################################" >&2
    echo "WARNING: CPU feature sets differ between baseline and fresh run:"   >&2
    echo "  baseline: $basefeat"                                              >&2
    echo "  fresh:    $curfeat"                                               >&2
    echo "ns/op deltas below reflect different kernels, not a code change."   >&2
    echo "Re-pin the baseline on this host before trusting the gate."         >&2
    echo "##################################################################" >&2
fi

MAXPCT="${BENCH_MAX_REGRESSION_PCT:-5}"
ALLOCGROWTH="${BENCH_MAX_ALLOC_GROWTH:-8}"
MINNSOP="${BENCH_MIN_NSOP:-100000}"
ALLOW_MISSING="${BENCH_ALLOW_MISSING:-0}"

awk -v maxpct="$MAXPCT" -v allocgrowth="$ALLOCGROWTH" -v minns="$MINNSOP" \
    -v allowmissing="$ALLOW_MISSING" '
    # Collect benchmark rows, locating the ns/op and allocs/op columns by
    # their unit labels (a MB/s column from b.SetBytes shifts positions).
    # File 1 is the baseline, file 2 the fresh run.
    $1 ~ /^Benchmark/ {
        f = (FNR == NR) ? 1 : 2
        ns = ""; allocs = ""
        for (i = 3; i <= NF; i++) {
            if ($(i) == "ns/op") ns = $(i-1)
            else if ($(i) == "allocs/op") allocs = $(i-1)
        }
        rows[f]++
        rname[f, rows[f]] = $1; rns[f, rows[f]] = ns; rallocs[f, rows[f]] = allocs
        next
    }
    # go test names a benchmark Name-N when GOMAXPROCS is N > 1, so the
    # suffix of a file is the -N that every one of its rows ends in (none
    # when they do not all agree: a name may itself end in -digits, like
    # NELL-2). Both files lose their suffix before names are matched.
    function suffix(f,    i, s, m) {
        s = ""
        for (i = 1; i <= rows[f]; i++) {
            if (!match(rname[f, i], /-[0-9]+$/)) return ""
            m = substr(rname[f, i], RSTART)
            if (i > 1 && m != s) return ""
            s = m
        }
        return s
    }
    function collect(f, sfx,    i, name) {
        for (i = 1; i <= rows[f]; i++) {
            name = rname[f, i]
            if (sfx != "") name = substr(name, 1, length(name) - length(sfx))
            if (f == 1) {
                if (rns[f, i] != "")     { base[name] += rns[f, i]; basen[name]++ }
                if (rallocs[f, i] != "") { basea[name] += rallocs[f, i]; basean[name]++ }
            } else {
                if (rns[f, i] != "")     { cur[name] += rns[f, i]; curn[name]++ }
                if (rallocs[f, i] != "") { cura[name] += rallocs[f, i]; curan[name]++ }
            }
        }
    }
    END {
        bsfx = suffix(1); csfx = suffix(2)
        if (bsfx != csfx) {
            print "##################################################################" > "/dev/stderr"
            print "WARNING: GOMAXPROCS name suffixes differ between baseline and fresh run:" > "/dev/stderr"
            print "  baseline: " (bsfx == "" ? "none (GOMAXPROCS=1)" : bsfx) > "/dev/stderr"
            print "  fresh:    " (csfx == "" ? "none (GOMAXPROCS=1)" : csfx) > "/dev/stderr"
            print "Names are matched without them; ns/op deltas compare runs on" > "/dev/stderr"
            print "different CPU counts, not only a code change." > "/dev/stderr"
            print "##################################################################" > "/dev/stderr"
        }
        collect(1, bsfx); collect(2, csfx)
        n = 0
        for (name in cur) n++
        if (n == 0) {
            print "WARNING: no benchmark rows in the fresh run (bad BENCH_PATTERN?)."
        }
        missing = 0; matched = 0
        for (name in cur) if (name in base) matched++
        printf "%d benchmark(s) in both the baseline and the fresh run\n", matched
        for (name in base) {
            if (!(name in cur)) {
                printf "MISSING    %-60s in baseline but absent from fresh run\n", name
                missing++
            }
        }
        bad = 0
        for (name in cur) {
            if (!(name in base)) continue
            b = base[name] / basen[name]
            c = cur[name] / curn[name]
            if (b <= 0) continue
            if (b < minns) continue # sub-floor benchmarks: pure jitter at 1x
            pct = (c - b) / b * 100
            if (pct > maxpct) {
                printf "REGRESSION %-60s %12.0f -> %12.0f ns/op (%+.1f%%)\n", name, b, c, pct
                bad++
            }
        }
        abad = 0
        for (name in cura) {
            if (!(name in basea)) continue # no alloc data pinned for it
            ba = basea[name] / basean[name]
            ca = cura[name] / curan[name]
            limit = ba * (1 + maxpct / 100) + allocgrowth
            if (ca > limit) {
                printf "ALLOC-REGRESSION %-54s %10.1f -> %10.1f allocs/op (limit %.1f)\n", name, ba, ca, limit
                abad++
            }
        }
        fail = 0
        if (bad) {
            printf "%d benchmark(s) regressed beyond %s%%\n", bad, maxpct
            fail = 1
        }
        if (abad) {
            printf "%d benchmark(s) exceeded the allocation gate (+%s%% relative, +%s absolute)\n", abad, maxpct, allocgrowth
            fail = 1
        }
        if (missing) {
            if (allowmissing == "1") {
                printf "%d baseline benchmark(s) missing (allowed: partial pattern run)\n", missing
            } else {
                printf "%d baseline benchmark(s) missing from the fresh run; deleted or renamed benchmarks must re-pin the baseline\n", missing
                fail = 1
            }
        }
        if (fail) exit 1
        print "benchmark gate passed."
    }
' "$BASE" "$CUR"
