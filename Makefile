# MobiRescue build/test entry points. `make ci` is the default gate:
# tier-1 verify (vet + build + test), the benchmark module's own vet +
# tests, the event-log determinism smoke and the serving-layer load
# smoke. The repository's one benchmark is `bash bench/run.sh` (see
# bench/README.md). CI runs the same pieces as separate jobs (`verify`,
# `eventlog-smoke`, `serve-smoke`, `crash-smoke`) alongside
# `make race`, which runs the full suite — including the chaos and
# resilience tests, whose goroutine-per-Decide wrapper is exactly where
# races would hide — under the race detector.

GO ?= go

.PHONY: all build vet test bench-test race bench bench-smoke eventlog-smoke crash-smoke serve-smoke fuzz cover verify ci clean

all: ci race

build:
	$(GO) build ./...

# go vet, then gofmt: any file gofmt would change fails the gate.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The end-to-end benchmark (bench/) is a Go module of its own, so the
# root `go test ./...` does not reach it; it imports the core API, so
# every API change must keep it building and passing.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Go micro-benchmarks for working on one layer: Decide latency, the
# routing fast path and the router rebind (to a new road state, and to
# the same one in the other windows of a flood hour), the flood
# history's hourly road state (hit and miss) and a simulated day, the
# prediction kernels (SVM, network forward and backward pass, storm
# series), the DQN's greedy decision and learner step at MobiRescue's
# 17 -> 64 -> 64 -> 8 Q-network with batch 32, and whole prediction
# windows over streamed populations of 10K to 1M people, cold and next,
# on 1 and 2 CPUs. They print numbers and gate nothing; tests pin the
# 0 allocs/op they report. End-to-end numbers come from
# `bash bench/run.sh`.
bench:
	$(GO) test -run '^$$' -bench BenchmarkDecide -benchtime 100x ./internal/dispatch
	$(GO) test -run '^$$' -bench . -benchmem ./internal/roadnet ./internal/flood ./internal/sim
	$(GO) test -run '^$$' -bench . -benchmem ./internal/svm ./internal/nn ./internal/rl ./internal/weather
	$(GO) test -run '^$$' -bench PredictStreamer -cpu 1,2 ./internal/core

# One-iteration pass over every benchmark in the module: the
# micro-benchmarks above, core's BenchmarkTrainEpisodes, the root
# package's figure, ablation, dispatch-latency and simulate-day
# benchmarks (the regenerators DESIGN §4 lists), and the rest (geo,
# ilp, mobility, eventlog). It is the only run of the benchmark bodies,
# which `make test` skips, so their code cannot rot between commits.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Short fuzz pass over the checkpoint loader, the session API handlers
# and the assignment solver (the corpus seeds always run as part of
# `make test`; this explores further).
fuzz:
	$(GO) test -fuzz FuzzLoadCheckpoint -fuzztime 30s ./internal/rl
	$(GO) test -fuzz FuzzSessionAPI -fuzztime 30s ./internal/serve
	$(GO) test -fuzz FuzzHungarian -fuzztime 30s ./internal/ilp

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

# Flight-recorder determinism smoke: record two small-scenario runs
# three times each — workers 1 vs 8 (telemetry, like results, must not
# depend on physical parallelism) and once more with crash-safe
# snapshots on (durability is the same run path, so the same bytes) —
# assert `analyze diff` reports zero divergence for every pair, and
# render a timeline from the structured log. The first run is
# MobiRescue without chaos; the second is Schedule under the default
# chaos profile, whose road surges start and end mid-hour (the first
# two start at 01:40 and 04:41 at seed 7), so the router drops its
# trees within an hour as well as at hour boundaries.
eventlog-smoke:
	$(GO) run ./cmd/mobirescue -scale small -method mr -episodes 1 -eventlog eventlog_a.jsonl
	$(GO) run ./cmd/mobirescue -scale small -method mr -episodes 1 -workers 8 -eventlog eventlog_b.jsonl
	rm -rf eventlog_snaps
	$(GO) run ./cmd/mobirescue -scale small -method mr -episodes 1 -snapshot-dir eventlog_snaps -eventlog eventlog_c.jsonl
	$(GO) run ./cmd/analyze diff eventlog_a.jsonl eventlog_b.jsonl
	$(GO) run ./cmd/analyze diff eventlog_a.jsonl eventlog_c.jsonl
	$(GO) run ./cmd/mobirescue -scale small -method schedule -episodes -1 -chaos default -chaos-seed 7 -workers 1 -eventlog eventlog_chaos_a.jsonl
	$(GO) run ./cmd/mobirescue -scale small -method schedule -episodes -1 -chaos default -chaos-seed 7 -workers 8 -eventlog eventlog_chaos_b.jsonl
	rm -rf eventlog_snaps
	$(GO) run ./cmd/mobirescue -scale small -method schedule -episodes -1 -chaos default -chaos-seed 7 -snapshot-dir eventlog_snaps -eventlog eventlog_chaos_c.jsonl
	$(GO) run ./cmd/analyze diff eventlog_chaos_a.jsonl eventlog_chaos_b.jsonl
	$(GO) run ./cmd/analyze diff eventlog_chaos_a.jsonl eventlog_chaos_c.jsonl
	$(GO) run ./cmd/analyze timeline eventlog_a.jsonl >/dev/null

# Serving-layer smoke: a short cmd/loadgen run, which exits 1 unless
# 1000 concurrent sessions were sustained through the ramp/burst/churn
# phases with zero errors. Its JSON report goes to stdout.
serve-smoke:
	$(GO) run ./cmd/loadgen -smoke

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
# the event-log smoke, and the serving-layer smoke.
ci: verify bench-test eventlog-smoke serve-smoke

# Go's build outputs, plus what the smokes, `make cover` and the
# benchmark leave in the repository root.
clean:
	$(GO) clean ./...
	rm -f eventlog_*.jsonl crashtest_mobirescue cover.out cover.txt
	rm -rf eventlog_snaps .bench_build
