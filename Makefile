GO ?= go

.PHONY: check vet staticcheck build test race race-gen race-serve race-sweep race-trace race-codec race-engine fuzz fuzz-smoke bench bench-perf golden golden-sweep

# The full gate: what CI runs — static checks, build, the race detector
# over every test, focused race passes over the worker-pool primitives
# (internal/par) and the parallel generator, the daemon, the sweep
# engine, the binary trace pipeline, the parallel trace codec and the
# sub-shard analysis pipeline with its fit memo, and short fuzz smokes
# of the CSV reader, the ingest endpoint, the sweep-spec parser, the
# binary trace round trip, the incremental-snapshot restore, and the
# daemon's WAL-payload and server-snapshot restore.
check: vet staticcheck build race race-gen race-serve race-sweep race-trace race-codec race-engine fuzz-smoke

vet:
	$(GO) vet ./...

# staticcheck when installed; go vet (above) plus the race gate is the
# documented fallback, so a missing binary only prints a notice.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go vet + race cover the gate)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race smoke of the worker-pool primitives every pipeline runs on
# (internal/par: For, the ordered Pipe, its window bound and Close) and
# of the parallel/streaming generator built on them: stream
# back-pressure and early close under the race detector.
race-gen:
	$(GO) test -race ./internal/par
	$(GO) test -race -run 'Workers|Stream|Subset' ./internal/lanl

# Race pass over the daemon and its client: concurrent ingest, queries
# against copy-on-write snapshots, drain/shutdown, and crash recovery
# all under the race detector.
race-serve:
	$(GO) test -race ./internal/serve/...

# Race pass over the sweep engine's worker pool and the byte-identity
# matrix (workers x seeds), plus the CLI golden at several worker counts.
race-sweep:
	$(GO) test -race -run 'Workers|Golden' ./internal/sweep ./cmd/sweep

# Race pass over the binary trace pipeline: the format round trip, the
# parallel generator feeding the binary writer at workers 1/4/8 (the
# byte-identity matrix in TestRunBinaryFormatMatchesCSV), and the
# format-sniffing readers.
race-trace:
	$(GO) test -race ./internal/tracefmt
	$(GO) test -race -run 'Binary|Workers|Stream' ./cmd/lanlgen ./cmd/failstat

# Race pass over the parallel trace codec specifically: the encode and
# decode identity matrices (workers x block sizes, byte- and
# record-exact vs the sequential paths), corruption injection under
# parallel decode, pool poison/IO-error/early-close shutdown, and the
# batched engine fan-in identity.
race-codec:
	$(GO) test -race -run 'Parallel|Window|Boundar|Truncated' ./internal/tracefmt
	$(GO) test -race -run 'BatchIdentity' ./internal/engine

# Race pass over the sub-shard analysis pipeline: the workers x seeds
# byte-identity matrix for fleet and stream, the dispatch-order identity,
# the counter-seeded bootstrap partition-invariance tests, and the fit
# memo: interning, forged hash collisions and concurrent lookups.
race-engine:
	$(GO) test -race -run 'SubShard|DispatchOrder|Partition|RepSeed|Memo|Intern' ./internal/engine ./internal/dist

fuzz:
	$(GO) test -fuzz=FuzzReadCSV -fuzztime=30s ./internal/failures

# A 10-second fuzz pass per target, cheap enough for every check run.
# go test accepts one -fuzz pattern per invocation, hence one run each.
# The snapshot targets cap minimization of their multi-kilobyte inputs,
# which would otherwise spend the whole pass shrinking one input.
fuzz-smoke:
	$(GO) test -fuzz=FuzzReadCSV -fuzztime=10s -run=^$$ ./internal/failures
	$(GO) test -fuzz=FuzzIngestHandler -fuzztime=10s -run=^$$ ./internal/serve
	$(GO) test -fuzz=FuzzParseSweepSpec -fuzztime=10s -run=^$$ ./internal/sweep
	$(GO) test -fuzz=FuzzTraceRoundTrip -fuzztime=10s -run=^$$ ./internal/tracefmt
	$(GO) test -fuzz=FuzzReadIncremental -fuzztime=10s -fuzzminimizetime=2s -run=^$$ ./internal/engine
	$(GO) test -fuzz=FuzzDecodeWALPayload -fuzztime=10s -run=^$$ ./internal/serve
	$(GO) test -fuzz=FuzzRestoreSnapshot -fuzztime=10s -fuzzminimizetime=2s -run=^$$ ./internal/serve

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# The repository benchmark (BENCHMARK.json): every workload it lists,
# at seed 1 and its run length, through perfbench/run.sh. Each run gates
# its outputs before timing and exits non-zero on a failed gate. Profile
# a single layer with its microbenchmark instead, e.g.
#   go test -run '^$' -bench BlockDecode -cpuprofile cpu.pprof ./internal/tracefmt
bench-perf:
	for w in gen_write scan_analyze fit_ci; do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 25 --trace 0 || exit 1; \
	done

# Rewrite the cmd/reproduce golden file after a reviewed output change.
golden:
	$(GO) test ./cmd/reproduce -run TestReproduceGolden -update

# Rewrite the cmd/sweep golden file after a reviewed output change.
golden-sweep:
	$(GO) test ./cmd/sweep -run TestSweepGolden -update
