GO ?= go

.PHONY: all build test vet fmt race bench experiments golden examples cover cover-gate conform workloads fuzz profile admd soak trace clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

test:
	$(GO) test ./...

# What CI runs (.github/workflows/ci.yml).
race:
	$(GO) test -race ./...

# Run every Go benchmark once (liveness), then the benchmark of record
# in smoke mode, which exits 1 if any workload is incorrect — the same
# sequence as the CI bench job.
bench:
	$(GO) test -bench . -benchtime=1x -run '^$$' ./...
	bash benchmark/run.sh -smoke

# Regenerate every table/figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/daelite bench

# Check the regenerated tables against the committed golden output,
# then one selected experiment against its section of it — the same two
# diffs as the CI golden job.
golden:
	$(GO) run ./cmd/daelite bench > /tmp/daelite_experiments.txt
	diff -u experiments_output.txt /tmp/daelite_experiments.txt
	$(GO) run ./cmd/daelite bench -experiment E3 > /tmp/daelite_e3.txt
	awk '/^==== /{p = /^==== E3 /} p' experiments_output.txt | diff -u - /tmp/daelite_e3.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/multicast
	$(GO) run ./examples/usecase-switch
	$(GO) run ./examples/multipath
	$(GO) run ./examples/memorymap
	$(GO) run ./examples/videopipeline
	$(GO) run ./examples/faultrepair
	$(GO) run ./examples/telemetry
	$(GO) run ./examples/tracing

cover:
	$(GO) test -cover ./...

# The CI coverage floor (COVER_FLOOR in .github/workflows/ci.yml), by
# CI's command: -coverpkg=./... credits the root-level integration tests
# to the internal packages they exercise.
cover-gate:
	$(GO) test -coverprofile=cover.out -coverpkg=./... ./...
	$(GO) tool cover -func=cover.out | awk '/^total:/ {sub("%","",$$3); print "total coverage: " $$3 "% (floor: 75.2%)"; if ($$3+0 < 75.2) { print "coverage " $$3 "% fell below the 75.2% floor"; exit 1 }}'

# The CI conformance gate: differential sweep + mutation smoke.
conform:
	$(GO) run ./cmd/daelite conform -scenarios 25 -seed 1

# The CI workloads gate: both example application packs with
# fast-forward checked against the cycle-accurate reference, each pack's
# mutation smoke, and the DNN pack soaked under per-phase fault injection
# and repair.
workloads:
	$(GO) run ./cmd/daelite conform -workload examples/workloads/dnn.json -fastforward
	$(GO) run ./cmd/daelite conform -workload examples/workloads/tinytera.json -fastforward
	$(GO) run ./cmd/daelite chaos -workload examples/workloads/dnn.json -chaos-every 2

# Short seeded runs of every fuzzer, with the same budgets as the CI
# fuzz steps.
fuzz:
	$(GO) test ./internal/alloc -run '^$$' -fuzz FuzzVerify -fuzztime 30s
	$(GO) test ./internal/alloc -run '^$$' -fuzz FuzzUnicastCandidates -fuzztime 15s
	$(GO) test ./internal/alloc -run '^$$' -fuzz FuzzDryRun -fuzztime 15s
	$(GO) test ./internal/topology -run '^$$' -fuzz FuzzSimplePaths -fuzztime 15s
	$(GO) test ./internal/slots -run '^$$' -fuzz FuzzPackedTables -fuzztime 15s
	$(GO) test ./internal/cfgproto -run '^$$' -fuzz FuzzRegionDecoder -fuzztime 15s
	$(GO) test ./internal/ni -run '^$$' -fuzz FuzzNIQueues -fuzztime 15s
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzKernel -fuzztime 15s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzConfigTransactions -fuzztime 15s
	$(GO) test ./internal/conformance -run '^$$' -fuzz FuzzCheckerExpectation -fuzztime 15s
	$(GO) test ./internal/admission -run '^$$' -fuzz FuzzRestoreSnapshot -fuzztime 15s
	$(GO) test ./internal/admission -run '^$$' -fuzz FuzzWhatIfBody -fuzztime 15s
	$(GO) test ./internal/admission -run '^$$' -fuzz FuzzNodeRef -fuzztime 15s
	$(GO) test ./internal/admission -run '^$$' -fuzz FuzzReadJournal -fuzztime 15s
	$(GO) test ./internal/cfgproto -run '^$$' -fuzz FuzzRegionEnvelope -fuzztime 15s
	$(GO) test ./internal/slots -run '^$$' -fuzz FuzzRotateMaskCompensation -fuzztime 15s
	$(GO) test ./internal/workload -run '^$$' -fuzz FuzzWorkloadSpec -fuzztime 15s

# Run the admission control-plane daemon on the default 4x4 mesh with
# durable state in ./admd.journal / ./admd.snapshot — restarting picks
# the state back up and reprints the same allocator fingerprint.
admd:
	$(GO) run ./cmd/daelite admd -journal admd.journal -snapshot admd.snapshot

# The control-plane soak: the in-process race-mode soak (seeded load
# driver + concurrent /metrics scrapes + online conformance checkers +
# restore-fingerprint check), then the benchmark's admd_mixed workload
# at smoke size (tenants over loopback HTTP, journal, snapshot and a
# restore that must reproduce the allocator fingerprint).
soak:
	$(GO) test -race -run 'TestSoakWithConcurrentScrape' -v ./internal/admission
	bash benchmark/run.sh --workload admd_mixed -smoke

# Produce a Perfetto-loadable causal trace of a regioned 6x6 run with
# the flight recorder armed, and verify it is byte-identical across two
# runs — the determinism contract the CI jobs gate.
trace:
	$(GO) run ./cmd/daelite sim -mesh 6x6 -cycles 2000 -trace-out trace_run1.json -flight-dump flight 0,0-5,5:2 1,0-1,5:1
	$(GO) run ./cmd/daelite sim -mesh 6x6 -cycles 2000 -trace-out trace.json -flight-dump flight 0,0-5,5:2 1,0-1,5:1
	cmp trace_run1.json trace.json
	@rm -f trace_run1.json
	@echo "wrote trace.json — load it at https://ui.perfetto.dev"

# Profile the admission engine under steady-state churn
# (Micro/AllocChurn) and drop cpu.pprof / mem.pprof for `go tool pprof`.
# go test also leaves the test binary, daelite.test, beside them.
profile:
	$(GO) test -run '^$$' -bench 'Micro/AllocChurn$$' -cpuprofile cpu.pprof -memprofile mem.pprof .
	@echo "wrote cpu.pprof mem.pprof — inspect with: go tool pprof daelite.test cpu.pprof"

clean:
	$(GO) clean ./...
