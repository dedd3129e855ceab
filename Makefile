# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-race bench bench-smoke bench-ab routing-smoke trace-smoke chaos crash push-soak experiments smoke fuzz fuzz-smoke vet lint check clean

all: build test

# The default verification gate: build, tests, static checks, the chaos
# suite under the race detector, the kill-9 durability drill, the
# push-delivery soak, the end-to-end trace-propagation smoke, the wire
# fuzz corpus smoke, the subscription-routing smoke (equivalence property
# under -race), and the load harness's own vet and tests.
check: build test vet chaos crash push-soak trace-smoke fuzz-smoke routing-smoke bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# One benchmark per paper table/figure plus the solver (serial vs
# parallel) and index (optimized path vs linear-scan oracle)
# micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Fault-schedule end-to-end suite under the race detector: scripted drops,
# delays, 5xx, processor panics and admission sheds driven through
# client → HTTP → server → stream, plus the same-key concurrent-retry
# exactly-once check. Schedules are seeded in-test, so the runs are
# deterministic.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestShutdownMidIngest|TestIdempotentConcurrentSameKey' ./internal/server

# Durability drill under the race detector: the in-process WAL /
# snapshot / torn-tail / degraded-read-only recovery suite, then the
# kill-9 harness — a real mqdp-server process SIGKILLed twice mid-stream
# and restarted on its data directory, with a retrying client driving
# the stream to byte-identical emissions against an uninterrupted run.
crash:
	$(GO) test -race -count=1 -run 'TestDurability|TestCrashRecoveryE2E' ./internal/server

# Push-delivery soak under the race detector: many idle SSE streams plus
# a few hot ones through sustained ingest, asserting the goroutine count
# stays flat and the active-stream gauge drains to zero, alongside the
# stream/poll/unsubscribe churn hammer.
push-soak:
	$(GO) test -race -count=1 -run 'TestPushSoak|TestStreamChurnHammer' ./internal/server

# Routing smoke for `make check`: the emissions-byte-identical property
# (server vs the in-test broadcast oracle with every post pooled, at the
# default pool threshold and with every post inline, quarantine
# mid-stream) under the race detector.
routing-smoke:
	$(GO) test -race -count=1 -run 'TestRoutingEquivalence|TestRoutingSkippedAccounting|TestIngestScratchBounded' ./internal/server

# bench/ is a nested module that `go test ./...` and `make vet` skip, and
# the only consumer that pins mqdp-server's flags, its listening log line
# and the leaf-package functions its reference pipeline calls.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Paired parent-vs-working-tree run of bench/ by the ten-pair rule:
# `make bench-ab REF=<parent ref> [WORKLOADS="window_scan ..."]`. About an
# hour for all four workloads; see scripts/bench-ab.sh for SEED, PAIRS,
# AB_DIR and BENCH_FLAGS.
bench-ab:
	@test -n "$(REF)" || { echo "usage: make bench-ab REF=<parent ref> [WORKLOADS=...]"; exit 2; }
	bash scripts/bench-ab.sh $(REF) $(WORKLOADS)

# End-to-end trace propagation under the race detector: one post followed
# client span → HTTP → admission → fan-out → emission → SSE frame, plus
# traceparent survival across retries and stream reconnects.
trace-smoke:
	$(GO) test -race -count=1 -run 'TestTrace' ./internal/server

# Regenerate every table and figure at full scale (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/mqdp-bench -run all -scale full | tee experiments_full.txt

smoke:
	$(GO) run ./cmd/mqdp-bench -run all -scale smoke

# Short fuzz pass over the parsing/hashing surfaces.
fuzz:
	$(GO) test -fuzz=FuzzTokenize -fuzztime=10s ./internal/textutil
	$(GO) test -fuzz=FuzzParseDIMACS -fuzztime=10s ./internal/sat
	$(GO) test -fuzz=FuzzComputeDeterministic -fuzztime=10s ./internal/simhash
	$(GO) test -fuzz=FuzzComputeWords -fuzztime=10s ./internal/simhash
	$(GO) test -fuzz=FuzzReadPosts -fuzztime=10s ./internal/wire
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=10s ./internal/wire
	$(GO) test -fuzz=FuzzBinaryRoundTrip -fuzztime=10s ./internal/wire
	$(GO) test -fuzz=FuzzWALSegment -fuzztime=10s ./internal/wal

# Replay the checked-in fuzz seed corpora (no fuzzing engine): fast
# enough for `make check`, still catches decoder, WAL-framing, tokenizer
# and fingerprint regressions on the malformed seeds.
fuzz-smoke:
	$(GO) test -run 'Fuzz' -count=1 ./internal/wire ./internal/wal ./internal/simhash ./internal/textutil

# vet fails the build on any vet finding, any unformatted file, a leaf
# package (solvers, stream processors, index) that imports internal/obs
# (instruments belong to the process that owns the registry), or any
# encoding/gob importer besides internal/server, whose snapshots are the
# one gob-encoded state.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@if $(GO) list -deps ./internal/core ./internal/stream ./internal/index | grep -qx mqdp/internal/obs; then echo "internal/core, internal/stream or internal/index depends on mqdp/internal/obs"; exit 1; fi
	@gob=$$($(GO) list -f '{{.ImportPath}} {{join .Imports " "}}' ./... | grep -w encoding/gob | cut -d' ' -f1); if [ "$$gob" != mqdp/internal/server ]; then echo "encoding/gob importers:" $$gob "(want only mqdp/internal/server)"; exit 1; fi

lint: vet

clean:
	$(GO) clean ./...
