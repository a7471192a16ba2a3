package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// loadSpec reads the repository's BENCHMARK.json.
func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestQuickRunEmitsEveryMetric runs every workload at tiny scale, untraced
// and traced, through the command-line entry point, and checks that each
// run passes its gates and prints every metric BENCHMARK.json names, with
// its unit, on its last line.
func TestQuickRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	dir := t.TempDir()
	start := time.Now()
	for _, w := range workloads {
		for trace, want := range map[string][]metricSpec{"0": spec.EndToEnd, "1": spec.PerLayer} {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "0.4", "--trace", trace,
				"--quick", "--out", dir}, &out, &errOut)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var s summary
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
				t.Fatalf("%s trace=%s: last line is not the summary: %v\n%s", w.name, trace, err, out.String())
			}
			if code != 0 || !s.Correct || s.Failed != 0 || s.Attempted < 1 {
				t.Errorf("%s trace=%s: exit %d, summary %+v\n%s%s", w.name, trace, code, s, out.String(), errOut.String())
			}
			for _, m := range want {
				got, ok := s.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
			if len(s.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json names %d", w.name, trace, len(s.Metrics), len(want))
			}
			if _, err := os.Stat(resultPath(config{outDir: dir}, w.name)); err != nil {
				t.Errorf("%s: no result file: %v", w.name, err)
			}
		}
	}
	if raceEnabled() {
		return // the race detector multiplies time and memory
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("quick runs took %v, want under 15s", d)
	}
	if rss := peakRSSMB(); runtime.GOOS == "linux" && rss > 300 {
		t.Errorf("peak RSS %.0f MB, want under 300", rss)
	}
}

func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// failNth fails the n-th request it carries and passes the rest on.
type failNth struct {
	n    int64
	seen atomic.Int64
	next http.RoundTripper
}

func (f *failNth) RoundTrip(r *http.Request) (*http.Response, error) {
	if f.seen.Add(1) == f.n {
		if r.Body != nil {
			r.Body.Close()
		}
		return nil, errors.New("injected failure")
	}
	return f.next.RoundTrip(r)
}

func TestInjectedFailureFailsTheRun(t *testing.T) {
	w, _ := lookup("query-mix")
	cfg := config{seed: 1, seconds: 0.2, quick: true, tasks: 1, outDir: t.TempDir(),
		rt: &failNth{n: 20, next: &http.Transport{MaxConnsPerHost: maxConns}}}
	res, _ := runWorkload(cfg, w)
	if res.Failed != 1 || exitCode(res) == 0 {
		t.Errorf("one failed request: failed=%d exit=%d, want 1 and non-zero", res.Failed, exitCode(res))
	}
	if len(res.Errors) != 1 || !strings.Contains(res.Errors[0], "injected failure") {
		t.Errorf("errors = %q", res.Errors)
	}

	if code := run([]string{"--workload", "no-such-workload"}, &bytes.Buffer{}, &bytes.Buffer{}); code == 0 {
		t.Error("an unknown workload exited 0")
	}
	if code := exitCode(&result{Correct: false, Attempted: 1}); code == 0 {
		t.Error("a failed gate exited 0")
	}
}
