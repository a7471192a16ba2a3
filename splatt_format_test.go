package splatt_test

import (
	"fmt"
	"math"
	"testing"

	splatt "repro"
	"repro/internal/alto"
	"repro/internal/mttkrp"
	"repro/internal/sptensor"
)

// TestCPDFormatParityAcrossOrdersAndStrategies is the acceptance property
// of the pluggable-format axis: an ALTO-backed CPD must match the
// CSF-backed CPD fit to 1e-8 on random tensors of orders 3-5 under both
// forced conflict strategies and the automatic decision.
func TestCPDFormatParityAcrossOrdersAndStrategies(t *testing.T) {
	shapes := [][]int{
		{30, 24, 18},
		{16, 14, 12, 10},
		{12, 10, 8, 7, 6},
	}
	for _, dims := range shapes {
		tensor := sptensor.Random(dims, 1500, int64(len(dims)))
		for _, strat := range []mttkrp.ConflictStrategy{
			mttkrp.StrategyAuto, mttkrp.StrategyLock, mttkrp.StrategyPrivatize,
		} {
			t.Run(fmt.Sprintf("order%d/%v", len(dims), strat), func(t *testing.T) {
				fits := map[splatt.StorageFormat]float64{}
				for _, f := range []splatt.StorageFormat{splatt.FormatCSF, splatt.FormatALTO} {
					opts := splatt.DefaultOptions()
					opts.Rank = 6
					opts.MaxIters = 10
					opts.Tasks = 4
					opts.Strategy = strat
					opts.Format = f
					_, report, err := splatt.CPD(tensor, opts)
					if err != nil {
						t.Fatalf("format %v: %v", f, err)
					}
					if report.Format != f.String() {
						t.Fatalf("report format %q, want %q", report.Format, f)
					}
					fits[f] = report.Fit
				}
				if d := math.Abs(fits[splatt.FormatCSF] - fits[splatt.FormatALTO]); d > 1e-8 {
					t.Errorf("order %d strat %v: CSF fit %.12f vs ALTO fit %.12f (|Δ|=%g)",
						len(dims), strat, fits[splatt.FormatCSF], fits[splatt.FormatALTO], d)
				}
			})
		}
	}
}

// TestCPDFormatParityOnDatasetTwins runs the same parity check on the
// synthetic Table-I twins (3rd-order, skewed) at smoke scale.
func TestCPDFormatParityOnDatasetTwins(t *testing.T) {
	if testing.Short() {
		t.Skip("twin parity sweep in -short mode")
	}
	for _, ds := range []string{"yelp", "nell-2"} {
		tensor := splatt.MustDataset(ds, 1.0/1024)
		var fits []float64
		for _, f := range []splatt.StorageFormat{splatt.FormatCSF, splatt.FormatALTO} {
			opts := splatt.DefaultOptions()
			opts.Rank = 8
			opts.MaxIters = 8
			opts.Tasks = 4
			opts.Format = f
			_, report, err := splatt.CPD(tensor, opts)
			if err != nil {
				t.Fatalf("%s/%v: %v", ds, f, err)
			}
			fits = append(fits, report.Fit)
		}
		if d := math.Abs(fits[0] - fits[1]); d > 1e-8 {
			t.Errorf("%s: CSF fit %.12f vs ALTO fit %.12f (|Δ|=%g)", ds, fits[0], fits[1], d)
		}
	}
}

// TestCPDAutoFormatResolves pins the auto heuristic through the public
// API: order-4 tensors linearize, regular order-3 tensors stay on CSF.
func TestCPDAutoFormatResolves(t *testing.T) {
	opts := splatt.DefaultOptions()
	opts.Rank = 4
	opts.MaxIters = 3
	opts.Format = splatt.FormatAuto

	t4 := sptensor.Random([]int{10, 9, 8, 7}, 400, 91)
	_, report, err := splatt.CPD(t4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.Format != "alto" {
		t.Errorf("order-4 auto resolved to %q, want alto", report.Format)
	}

	// A regular narrow order-3 tensor resolves by walker capability: ALTO
	// when the build has native bit-extraction (pext tile walker, half the
	// memory), CSF on pure-Go builds.
	want3 := "csf"
	if alto.NativeExtract() {
		want3 = "alto"
	}
	t3 := sptensor.Random([]int{20, 20, 20}, 800, 92)
	_, report, err = splatt.CPD(t3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.Format != want3 {
		t.Errorf("uniform order-3 auto resolved to %q, want %s", report.Format, want3)
	}
	if f, reason := splatt.ChooseFormat(t4); f != splatt.FormatALTO || reason == "" {
		t.Errorf("ChooseFormat(order-4) = %v %q", f, reason)
	}
}

// TestDistributedFormatParity checks the locale shards honour the format
// axis: an ALTO-backed distributed run matches the CSF-backed one.
func TestDistributedFormatParity(t *testing.T) {
	tensor := sptensor.Random([]int{40, 16, 14}, 1200, 93)
	var fits []float64
	for _, f := range []splatt.StorageFormat{splatt.FormatCSF, splatt.FormatALTO} {
		opts := splatt.DefaultDistOptions()
		opts.Locales = 3
		opts.Rank = 5
		opts.MaxIters = 6
		opts.Format = f
		_, report, err := splatt.CPDDistributed(tensor, opts)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if report.Format != f.String() {
			t.Fatalf("dist report format %q, want %q", report.Format, f)
		}
		fits = append(fits, report.Fit)
	}
	if d := math.Abs(fits[0] - fits[1]); d > 1e-8 {
		t.Errorf("dist: CSF fit %.12f vs ALTO fit %.12f (|Δ|=%g)", fits[0], fits[1], d)
	}
}
