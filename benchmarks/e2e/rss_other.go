//go:build !linux

package main

import "runtime"

// peakRSSMB approximates the peak resident set size by the memory the Go
// runtime obtained from the system, in MiB, where getrusage's maxrss unit
// differs from Linux's.
func peakRSSMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
