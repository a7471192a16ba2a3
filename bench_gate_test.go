// Unit-style tests for scripts/bench_compare.sh, the benchmark regression
// comparator behind the CI bench gate: it must flag regressions beyond the
// threshold, skip sub-floor noise, and — the failure mode that motivated
// extracting it — fail loudly when a benchmark present in the baseline is
// missing from the fresh run instead of silently passing.
package splatt_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runCompare drives the comparator on synthetic baseline/latest files and
// returns (combined output, exit error).
func runCompare(t *testing.T, baseline, latest string, env ...string) (string, error) {
	t.Helper()
	if _, err := exec.LookPath("bash"); err != nil {
		t.Skip("bash not available")
	}
	dir := t.TempDir()
	base := filepath.Join(dir, "baseline.txt")
	cur := filepath.Join(dir, "latest.txt")
	if err := os.WriteFile(base, []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cur, []byte(latest), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("bash", "scripts/bench_compare.sh", base, cur)
	cmd.Env = append(os.Environ(), env...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

const benchHeader = "goos: linux\ngoarch: amd64\npkg: repro\n"

func row(name string, nsop int) string {
	return name + "-8   \t       1\t" + itoa(nsop) + " ns/op\n"
}

// memRow is a -benchmem row: ns/op plus B/op and allocs/op columns.
func memRow(name string, nsop, bop, allocs int) string {
	return procsRow(name+"-8", nsop, bop, allocs)
}

// procsRow is a -benchmem row under its full name, which carries the -N
// suffix go test adds when GOMAXPROCS is N > 1 and none at GOMAXPROCS=1.
func procsRow(name string, nsop, bop, allocs int) string {
	return name + "   \t       1\t" + itoa(nsop) + " ns/op\t" +
		itoa(bop) + " B/op\t" + itoa(allocs) + " allocs/op\n"
}

// mbsRow adds the MB/s column b.SetBytes produces, which shifts the B/op
// and allocs/op fields — the comparator must locate columns by unit label.
func mbsRow(name string, nsop, bop, allocs int) string {
	return name + "-8   \t       1\t" + itoa(nsop) + " ns/op\t 285.27 MB/s\t" +
		itoa(bop) + " B/op\t" + itoa(allocs) + " allocs/op\n"
}

func itoa(v int) string {
	var b []byte
	if v == 0 {
		return "0"
	}
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

func TestBenchComparePasses(t *testing.T) {
	base := benchHeader + row("BenchmarkA", 1_000_000) + row("BenchmarkB", 2_000_000)
	cur := benchHeader + row("BenchmarkA", 1_020_000) + row("BenchmarkB", 1_900_000)
	out, err := runCompare(t, base, cur, "BENCH_MAX_REGRESSION_PCT=5")
	if err != nil {
		t.Fatalf("clean run failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "benchmark gate passed") {
		t.Errorf("missing pass message:\n%s", out)
	}
}

func TestBenchCompareFlagsRegression(t *testing.T) {
	base := benchHeader + row("BenchmarkA", 1_000_000)
	cur := benchHeader + row("BenchmarkA", 1_500_000)
	out, err := runCompare(t, base, cur, "BENCH_MAX_REGRESSION_PCT=5")
	if err == nil {
		t.Fatalf("50%% regression passed:\n%s", out)
	}
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "BenchmarkA") {
		t.Errorf("regression not reported:\n%s", out)
	}
}

func TestBenchCompareFailsOnMissingBenchmark(t *testing.T) {
	// BenchmarkB exists in the baseline but not in the fresh run — the
	// silent-drop case the gate previously let through.
	base := benchHeader + row("BenchmarkA", 1_000_000) + row("BenchmarkB", 2_000_000)
	cur := benchHeader + row("BenchmarkA", 1_000_000)
	out, err := runCompare(t, base, cur)
	if err == nil {
		t.Fatalf("missing benchmark passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "MISSING") || !strings.Contains(out, "BenchmarkB") {
		t.Errorf("missing benchmark not named:\n%s", out)
	}
}

func TestBenchCompareAllowsMissingWhenPartialRun(t *testing.T) {
	base := benchHeader + row("BenchmarkA", 1_000_000) + row("BenchmarkB", 2_000_000)
	cur := benchHeader + row("BenchmarkA", 1_000_000)
	out, err := runCompare(t, base, cur, "BENCH_ALLOW_MISSING=1")
	if err != nil {
		t.Fatalf("partial-pattern run failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "missing") {
		t.Errorf("partial run should still warn about missing benchmarks:\n%s", out)
	}
}

func TestBenchCompareSkipsSubFloorNoise(t *testing.T) {
	// A 10x "regression" on a 1000 ns/op benchmark is jitter at 1x
	// iteration and must not trip the gate; the benchmark still counts as
	// present for the missing check.
	base := benchHeader + row("BenchmarkTiny", 1_000) + row("BenchmarkBig", 5_000_000)
	cur := benchHeader + row("BenchmarkTiny", 10_000) + row("BenchmarkBig", 5_000_000)
	out, err := runCompare(t, base, cur, "BENCH_MIN_NSOP=100000")
	if err != nil {
		t.Fatalf("sub-floor jitter tripped the gate: %v\n%s", err, out)
	}
}

func TestBenchCompareFlagsAllocRegression(t *testing.T) {
	// 0 → 50 allocs/op at matching ns/op: the hot-path-allocation class of
	// regression the steady-state benches exist to catch.
	base := benchHeader + memRow("BenchmarkSteady", 1_000_000, 0, 0)
	cur := benchHeader + memRow("BenchmarkSteady", 1_000_000, 4096, 50)
	out, err := runCompare(t, base, cur, "BENCH_MAX_ALLOC_GROWTH=8")
	if err == nil {
		t.Fatalf("alloc regression passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "ALLOC-REGRESSION") || !strings.Contains(out, "BenchmarkSteady") {
		t.Errorf("alloc regression not reported:\n%s", out)
	}
}

func TestBenchCompareAllowsAllocGrowthWithinSlack(t *testing.T) {
	base := benchHeader + memRow("BenchmarkSteady", 1_000_000, 0, 0) +
		memRow("BenchmarkBig", 2_000_000, 1_000_000, 1000)
	// +6 absolute on a zero baseline and +2% on a large one both sit
	// inside the default (+5% relative, +8 absolute) envelope.
	cur := benchHeader + memRow("BenchmarkSteady", 1_000_000, 480, 6) +
		memRow("BenchmarkBig", 2_000_000, 1_020_000, 1020)
	out, err := runCompare(t, base, cur)
	if err != nil {
		t.Fatalf("in-envelope alloc growth tripped the gate: %v\n%s", err, out)
	}
}

func TestBenchCompareAllocGrowthKnob(t *testing.T) {
	base := benchHeader + memRow("BenchmarkSteady", 1_000_000, 0, 0)
	cur := benchHeader + memRow("BenchmarkSteady", 1_000_000, 1600, 20)
	if out, err := runCompare(t, base, cur, "BENCH_MAX_ALLOC_GROWTH=8"); err == nil {
		t.Fatalf("20 allocs passed a +8 gate:\n%s", out)
	}
	if out, err := runCompare(t, base, cur, "BENCH_MAX_ALLOC_GROWTH=32"); err != nil {
		t.Fatalf("20 allocs failed a +32 gate: %v\n%s", err, out)
	}
}

func TestBenchCompareSkipsAllocCheckWithoutBaselineColumns(t *testing.T) {
	// A pre-benchmem baseline has no allocs/op column: the fresh run's
	// allocation data cannot be compared and must not fail the gate.
	base := benchHeader + row("BenchmarkA", 1_000_000)
	cur := benchHeader + memRow("BenchmarkA", 1_000_000, 9999, 9999)
	out, err := runCompare(t, base, cur)
	if err != nil {
		t.Fatalf("missing baseline alloc columns tripped the gate: %v\n%s", err, out)
	}
}

func TestBenchCompareParsesMBsColumn(t *testing.T) {
	// b.SetBytes benches interpose a MB/s column; ns/op and allocs/op must
	// still be located by label, and a real alloc regression still flagged.
	base := benchHeader + mbsRow("BenchmarkMTTKRP", 1_000_000, 0, 0)
	cur := benchHeader + mbsRow("BenchmarkMTTKRP", 1_010_000, 8192, 100)
	out, err := runCompare(t, base, cur)
	if err == nil {
		t.Fatalf("alloc regression behind MB/s column passed:\n%s", out)
	}
	if !strings.Contains(out, "ALLOC-REGRESSION") {
		t.Errorf("alloc regression not reported:\n%s", out)
	}
	// And matching rows pass with the MB/s column present.
	if out, err := runCompare(t, base, base); err != nil {
		t.Fatalf("identical MB/s rows failed: %v\n%s", err, out)
	}
}

func TestBenchCompareAveragesRepeatedRuns(t *testing.T) {
	// BENCH_COUNT>1 emits repeated rows; the comparator averages them, so
	// one noisy sample among good ones must not fail the gate.
	base := benchHeader + row("BenchmarkA", 1_000_000)
	cur := benchHeader + row("BenchmarkA", 900_000) + row("BenchmarkA", 1_100_000) + row("BenchmarkA", 1_000_000)
	out, err := runCompare(t, base, cur, "BENCH_MAX_REGRESSION_PCT=5")
	if err != nil {
		t.Fatalf("averaged run failed: %v\n%s", err, out)
	}
}

func TestBenchCompareStripsGOMAXPROCSSuffix(t *testing.T) {
	// A baseline pinned at GOMAXPROCS=1 names rows without a suffix (one
	// name ends in -2 by itself); a run on 2 CPUs appends -2 to every
	// name. The rows must still be matched, so that a planted ns/op or
	// allocs/op regression fails and a clean run passes.
	names := []string{"BenchmarkSteady/yelp/tasks=1", "BenchmarkTable/NELL-2"}
	base := benchHeader
	for _, name := range names {
		base += procsRow(name, 2_000_000, 0, 0)
	}
	fresh := func(nsop, allocs int) string {
		cur := benchHeader
		for _, name := range names {
			cur += procsRow(name+"-2", 2_000_000, 0, 0)
		}
		return cur + procsRow(names[0]+"-2", nsop, 0, allocs)
	}
	out, err := runCompare(t, base, fresh(2_000_000, 0))
	if err != nil {
		t.Fatalf("clean run failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "2 benchmark(s) in both") || strings.Contains(out, "MISSING") {
		t.Errorf("suffixed rows not matched to the baseline:\n%s", out)
	}
	if !strings.Contains(out, "GOMAXPROCS name suffixes differ") {
		t.Errorf("no warning about the differing suffixes:\n%s", out)
	}
	// Averaged over the two fresh rows, 2 ms and 5 ms read 3.5 ms: +75%.
	out, err = runCompare(t, base, fresh(5_000_000, 0), "BENCH_MAX_REGRESSION_PCT=5")
	if err == nil || !strings.Contains(out, "REGRESSION "+names[0]) {
		t.Fatalf("ns/op regression behind a -2 suffix passed: %v\n%s", err, out)
	}
	out, err = runCompare(t, base, fresh(2_000_000, 100))
	if err == nil || !strings.Contains(out, "ALLOC-REGRESSION "+names[0]) {
		t.Fatalf("allocs/op regression behind a -2 suffix passed: %v\n%s", err, out)
	}
}
