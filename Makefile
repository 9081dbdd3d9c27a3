# MobiRescue build/test entry points. `make ci` is the default gate:
# tier-1 verify (vet + build + test), the benchmark module's own vet +
# tests, and the event-log determinism/bench-gate smoke. CI runs the same pieces as separate
# jobs (`verify`, `eventlog-smoke`, `crash-smoke`) alongside
# `make race`, which runs the full suite — including the chaos and
# resilience tests, whose goroutine-per-Decide wrapper is exactly where
# races would hide — under the race detector.

GO ?= go

.PHONY: all build vet test bench-test race bench bench-smoke bench-scale-smoke bench-ilp-smoke eventlog-smoke crash-smoke serve-smoke fuzz cover verify ci clean

all: ci race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The end-to-end benchmark (bench/) is a Go module of its own, so the
# root `go test ./...` does not reach it; it imports the core API, so
# every API change must keep it building and passing.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Decide-latency micro-benchmarks, the routing fast-path benchmarks
# (BenchmarkTree must report 0 allocs/op; BenchmarkTreeCached must be
# >=10x BenchmarkTreeCold), the prediction fast-path benchmarks
# (svm.DecisionInto / nn.ForwardInto must report 0 allocs/op), and the
# BENCH_routing.json / BENCH_predict.json artifacts.
bench:
	$(GO) test -run '^$$' -bench BenchmarkDecide -benchtime 100x ./internal/dispatch
	$(GO) test -run '^$$' -bench . -benchmem ./internal/roadnet
	$(GO) test -run '^$$' -bench . -benchmem ./internal/svm ./internal/nn ./internal/weather
	$(GO) run ./cmd/benchroute -out BENCH_routing.json
	$(GO) run ./cmd/benchpredict -out BENCH_predict.json
	$(GO) run ./cmd/benchscale -out BENCH_scale.json
	$(GO) run ./cmd/benchilp -out BENCH_ilp.json

# One-iteration smoke pass over every benchmark plus the benchpredict
# contract run (identity witnesses and the 0 allocs/op assertions for
# svm.DecisionInto / nn.ForwardInto, no trustworthy timings, artifact
# untouched) — CI runs this so benchmark code cannot rot between
# commits.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/roadnet ./internal/dispatch ./internal/svm ./internal/nn ./internal/weather
	$(GO) run ./cmd/benchpredict -smoke

# Metro-scale contract smoke: the 10K and 100K streaming tiers through
# cmd/benchscale (identity witnesses, sublinear peak heap, per-window
# decision budget — no artifact timings to trust). The checked-in
# BENCH_scale.json's 1M tier is generated manually with
# `go run ./cmd/benchscale -full`.
bench-scale-smoke:
	$(GO) run ./cmd/benchscale -smoke

# Assignment-solver contract smoke: the full benchilp sweep grid with a
# reduced equivalence battery (the gate booleans and the deterministic
# bid-count speedups are identical to the full run), checked against
# the committed BENCH_ilp.json baseline in portable mode. The full
# artifact regenerates with `go run ./cmd/benchilp -out BENCH_ilp.json`.
bench-ilp-smoke:
	$(GO) run ./cmd/benchilp -smoke -out fresh_ilp.json
	$(GO) run ./cmd/analyze bench-check -portable -base BENCH_ilp.json -fresh fresh_ilp.json

# Short fuzz pass over the city loader, the checkpoint loader, and the
# session API handlers (the corpus seeds always run as part of `make
# test`; this explores further).
fuzz:
	$(GO) test -fuzz FuzzReadCityJSON -fuzztime 30s ./internal/roadnet
	$(GO) test -fuzz FuzzLoadCheckpoint -fuzztime 30s ./internal/rl
	$(GO) test -fuzz FuzzSessionAPI -fuzztime 30s ./internal/serve
	$(GO) test -fuzz FuzzHungarian -fuzztime 30s ./internal/ilp
	$(GO) test -fuzz FuzzAuction -fuzztime 30s ./internal/ilp

# Full-suite coverage profile (cover.out; CI uploads it as an artifact)
# plus soft per-package floors for the training stack — the packages the
# determinism and checkpoint guarantees live in. Floors warn instead of
# failing: coverage is a signal, not a gate.
COVER_FLOORS = internal/train:80 internal/rl:85 internal/nn:90 internal/serve:80 internal/ilp:85

cover:
	$(GO) test -covermode=atomic -coverprofile=cover.out ./... | tee cover.txt
	$(GO) tool cover -func=cover.out | tail -1
	@for spec in $(COVER_FLOORS); do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; \
		pct=$$(grep -E "mobirescue/$$pkg[[:space:]]" cover.txt | grep -o 'coverage: [0-9.]*' | awk '{print $$2}'); \
		if [ -z "$$pct" ]; then \
			echo "WARN: no coverage reported for $$pkg"; \
		elif awk "BEGIN{exit !($$pct < $$floor)}"; then \
			echo "WARN: $$pkg coverage $$pct% is below the soft floor $$floor%"; \
		else \
			echo "ok: $$pkg coverage $$pct% (floor $$floor%)"; \
		fi; \
	done

# Flight-recorder determinism + bench-gate smoke: record the small
# scenario three times — workers 1 vs 8 (telemetry, like results, must
# not depend on physical parallelism) and once more with crash-safe
# snapshots on (durability is the same run path, so the same bytes) —
# assert `analyze diff` reports zero divergence for both pairs, render a timeline from the structured log, and run the
# bench-regression gate over the checked-in BENCH_*.json artifacts in
# portable mode (allocs/bytes strict, speedup ratios within tolerance;
# raw ns/op skipped — they do not transfer across machines). The
# self-check pins the artifacts' own invariants and the gate tool; a
# real regression check diffs a fresh `make bench` artifact instead.
eventlog-smoke:
	$(GO) run ./cmd/mobirescue -scale small -method mr -episodes 1 -eventlog eventlog_a.jsonl
	$(GO) run ./cmd/mobirescue -scale small -method mr -episodes 1 -workers 8 -train-workers 8 -eventlog eventlog_b.jsonl
	rm -rf eventlog_snaps
	$(GO) run ./cmd/mobirescue -scale small -method mr -episodes 1 -snapshot-dir eventlog_snaps -eventlog eventlog_c.jsonl
	$(GO) run ./cmd/analyze diff eventlog_a.jsonl eventlog_b.jsonl
	$(GO) run ./cmd/analyze diff eventlog_a.jsonl eventlog_c.jsonl
	$(GO) run ./cmd/analyze timeline eventlog_a.jsonl >/dev/null
	$(GO) run ./cmd/analyze bench-check -portable -base BENCH_routing.json -fresh BENCH_routing.json
	$(GO) run ./cmd/analyze bench-check -portable -base BENCH_predict.json -fresh BENCH_predict.json
	$(GO) run ./cmd/analyze bench-check -portable -base BENCH_scale.json -fresh BENCH_scale.json

# Serving-layer smoke: a short cmd/loadgen run (1000 concurrent
# sessions sustained through ramp/burst/churn phases, zero errors) and
# the bench-regression gate over the fresh artifact against the
# checked-in BENCH_serve.json baseline in portable mode. A full-length
# artifact regenerates with `go run ./cmd/loadgen -out BENCH_serve.json`.
serve-smoke:
	$(GO) run ./cmd/loadgen -smoke -out fresh_serve.json
	$(GO) run ./cmd/analyze bench-check -portable -base BENCH_serve.json -fresh fresh_serve.json

# Kill -9 fuzz over the crash-safe run machinery (internal/snapshot):
# one uninterrupted reference run, then kill/resume cycles until at
# least 10 SIGKILLs have landed — every cycle must finish with an event
# log byte-identical to the reference — then truncation and bit-flip
# drills that damage the newest snapshot and require fallback to the
# previous valid generation. The kill schedule is seeded, so a failure
# reproduces with the same flags. See cmd/crashtest.
crash-smoke:
	$(GO) build -o crashtest_mobirescue ./cmd/mobirescue
	$(GO) run ./cmd/crashtest -bin crashtest_mobirescue

verify: vet build test

# The default CI gate: tier-1 verify plus the benchmark module's tests,
# the event-log smoke, the metro-scale contract smoke, the serving-layer
# smoke, and the assignment-solver contract smoke.
ci: verify bench-test eventlog-smoke bench-scale-smoke serve-smoke bench-ilp-smoke

clean:
	$(GO) clean ./...
