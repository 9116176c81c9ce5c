GO ?= go

# Benchmarks guarded by the bench-gate CI job (see cmd/benchdiff).
# GUARDED_BENCH run 3 iterations each; a ping-pong takes a few µs, so
# PINGPONG_BENCH runs 2000, where the one-off warm-up no longer shows.
GUARDED_BENCH = ^(BenchmarkFig7_CodeOverhead|BenchmarkFig8_ITBOverhead|BenchmarkSweepSerial|BenchmarkSweepParallel|BenchmarkRecoveryOff|BenchmarkRecoveryChurn72|BenchmarkEngineTableBuild1024|BenchmarkLoadStudySmall|BenchmarkFig7Lanes1|BenchmarkFig7Lanes2|BenchmarkVCAblationSweep|BenchmarkUpDownITBTableDragonfly342)$$
PINGPONG_BENCH = ^BenchmarkAllsizePingPong$$
# Output file for bench-json (ignored by git). A committed point of
# the benchmark trajectory is written as BENCH_PR<n>.json with
# `make bench-json BENCH_JSON=BENCH_PR<n>.json`.
BENCH_JSON ?= bench.json

.PHONY: all build test test-race vet lint vulncheck bench bench-json bench-gate fuzz fuzz-smoke cover experiments golden clean

all: build lint test test-race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: gofmt (any file it would reformat fails the
# target), go vet always — on the root module and on benchmark/, its
# own module, so a removed API the benchmark still uses fails here —
# and staticcheck when installed (CI installs it, local trees may not
# have it).
lint: vet
	cd benchmark && $(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt would reformat:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go vet ran)"; \
	fi

# Known-vulnerability scan (advisory in CI: the lint job runs it with
# continue-on-error, so a fresh stdlib CVE is visible without turning
# unrelated PRs red). Skips gracefully where govulncheck or its
# network-backed vulndb is unavailable.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

test:
	$(GO) test ./...

# Race-detector pass over the whole tree. The parallel experiment
# runner shards simulation runs across goroutines; this certifies the
# determinism suite (internal/core/parallel_test.go) and the runner
# pool race-free.
test-race:
	$(GO) test -race ./...

# One benchmark per table/figure of the paper's evaluation.
bench:
	$(GO) test -bench=. -benchmem .

# Run the guarded benchmarks and summarise them as JSON (min of 5
# counts per metric); see EXPERIMENTS.md "Benchmark trajectory".
bench-json:
	{ $(GO) test -run '^$$' -bench '$(GUARDED_BENCH)' -benchtime=3x -count=5 -benchmem . && \
	  $(GO) test -run '^$$' -bench '$(PINGPONG_BENCH)' -benchtime=2000x -count=5 -benchmem . ; } \
		| tee /dev/stderr | $(GO) run ./cmd/benchdiff -emit $(BENCH_JSON)

# Compare the fresh summary against the committed baseline; fails on
# >15% ns/op regression or allocs/op growth beyond the 0.1%
# pool-eviction noise floor (zero-alloc baselines stay exact).
bench-gate: bench-json
	$(GO) run ./cmd/benchdiff -baseline BENCH_baseline.json -current $(BENCH_JSON)

# Run every Fuzz* target for FUZZTIME each, discovering them with
# `go test -list` so new targets are picked up without editing this
# file or the CI workflow.
FUZZTIME ?= 10s
fuzz fuzz-smoke:
	@set -e; for pkg in $$($(GO) list ./...); do \
		targets=$$($(GO) test -list '^Fuzz' $$pkg 2>/dev/null | grep '^Fuzz' || true); \
		for t in $$targets; do \
			echo "=== fuzz $$pkg $$t"; \
			$(GO) test -fuzz "^$$t$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# Coverage profile + total; the CI coverage job enforces the floor.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Regenerate every experiment table at full size.
experiments:
	$(GO) run ./cmd/itbsim -exp all -iters 100 -switches 16 -window 1500

# Refresh the calibration lock after a deliberate timing change.
golden:
	REGEN_GOLDEN=1 $(GO) test ./internal/core/ -run TestCalibrationGolden

clean:
	$(GO) clean ./...
