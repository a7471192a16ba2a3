GO ?= go

.PHONY: all build test race verify bench bench-gate profile serve fmt vet lint cover e2e-check ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# verify runs splatt-verify, the end-to-end correctness gate: every kernel
# configuration against the coordinate-form MTTKRP, plus CPD agreement
# across implementation profiles. `GOFLAGS=-tags=purego make verify`
# checks the pure-Go kernel bodies.
verify:
	$(GO) run ./cmd/splatt-verify -trials 1 -rank 35

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Writes benchmarks/latest.txt; fails on >BENCH_MAX_REGRESSION_PCT (5)
# ns/op regressions or allocs/op growth beyond BENCH_MAX_ALLOC_GROWTH (8)
# when benchmarks/baseline.txt is committed.
bench-gate:
	./scripts/bench.sh

# Captures a CPU profile of the steady-state CP-ALS iteration benches
# (PROFILE_BENCH overrides the pattern). Inspect with:
#   go tool pprof bench.test cpu.prof
profile:
	$(GO) test -run '^$$' -bench '$(or $(PROFILE_BENCH),BenchmarkSteadyState)' \
		-benchtime 20x -count 1 -cpuprofile cpu.prof -o bench.test .
	@echo "wrote cpu.prof (binary: bench.test); open with: go tool pprof bench.test cpu.prof"

serve:
	$(GO) run ./cmd/splatt-serve

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint runs golangci-lint (.golangci.yml) when installed; otherwise it
# falls back to the gofmt + vet pair so `make ci` works on any machine.
lint:
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	else \
		echo "golangci-lint not installed; falling back to gofmt + go vet"; \
		$(MAKE) fmt vet; \
	fi

# cover enforces the pinned total-coverage floor (scripts/coverage.sh).
cover:
	./scripts/coverage.sh

# e2e-check vets and tests benchmarks/e2e, a nested module the root
# build, vet and test skip; its tests include a -quick run of every
# workload.
e2e-check:
	GOWORK=off GOFLAGS= $(GO) -C benchmarks/e2e vet ./...
	GOWORK=off GOFLAGS= $(GO) -C benchmarks/e2e test -count 1 ./...

ci: lint build test verify race
