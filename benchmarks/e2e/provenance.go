package main

import (
	"fmt"
	"runtime"
	"runtime/debug"

	"repro/internal/alto"
	"repro/internal/cpu"
	"repro/internal/dense"
)

// provenance stamps a result with what produced it. Cohort is the kernel
// set the dispatch layer resolved to, in the form cmd/splatt-cpuinfo
// prints; runs from different cohorts measure different code and are never
// compared.
type provenance struct {
	Cohort     string  `json:"cpu_features"`
	CPU        string  `json:"cpu"`
	DenseISA   string  `json:"dense_isa"`
	AltoWalker string  `json:"alto_walker"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Quick      bool    `json:"quick"`
}

func newProvenance(cfg config) provenance {
	walker := "tables"
	if alto.NativeExtract() {
		walker = "pext"
	}
	p := provenance{
		CPU: cpu.Summary(), DenseISA: dense.KernelISA(), AltoWalker: walker,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced, Quick: cfg.quick,
	}
	p.Cohort = fmt.Sprintf("cpu=%s dense=%s alto=%s", p.CPU, p.DenseISA, p.AltoWalker)
	// The Go toolchain stamps the commit when it builds inside a git
	// checkout; a source tree without .git reports "unknown".
	if info, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			p.Commit += "+modified"
		}
	}
	return p
}
