# Local mirror of .github/workflows/ci.yml: `make check` runs exactly what
# CI runs (gofmt, vet, race tests, bench smoke + figure smoke), so local
# runs and CI cannot diverge. Individual targets match the CI job steps.

SHELL := /bin/bash
GO ?= go

.PHONY: check build fmt vet mdcheck examples test race cover faults-smoke migration-smoke scan-smoke bench-smoke perfbench-smoke fig-smoke shards-smoke saturation-smoke durability-smoke migration-fig-smoke bench-json bench-compare bench-compare-strict clean

## check: everything CI gates a PR on
check: fmt vet mdcheck examples race faults-smoke migration-smoke scan-smoke bench-smoke perfbench-smoke fig-smoke shards-smoke saturation-smoke durability-smoke migration-fig-smoke bench-compare-strict

build:
	$(GO) build ./...

## mdcheck: markdown link check over README.md/DESIGN.md/examples/README.md
## and friends (CI "lint" job; the checker is docs_test.go)
mdcheck:
	$(GO) test -run 'TestMarkdownLinks' .

## examples: build every example program (CI "lint" job; keeps examples
## from rotting — go build discards the binaries)
examples:
	$(GO) build ./examples/...

## fmt: fail if any file needs gofmt (CI "lint" job)
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

## vet: static checks (CI "lint" job)
vet:
	$(GO) vet ./...

## test: plain test run (tier-1 verify)
test:
	$(GO) test ./...

## race: the CI "test" job. -shuffle=on randomizes test order every run so
## inter-test state dependencies surface instead of hiding behind file order.
race:
	$(GO) test -race -shuffle=on ./...

## cover: per-package coverage summary (cover.txt; the CI test job appends it
## to $GITHUB_STEP_SUMMARY)
cover:
	set -o pipefail; $(GO) test -count=1 -cover ./... | tee cover.txt

## faults-smoke: the storage fault-injection battery on fixed seeds — the
## fsyncgate pin, the seeded-random durability property, the scrub rot
## detection, and the combined disk+network nemesis (CI "test" job; the
## same tests also run shuffled under -race via `race`)
faults-smoke:
	$(GO) test -count=1 -run 'TestFsyncFailureNeverAcksNeverRetries|TestRandomFaultDurability|TestScrubDetects|TestEngineFailStopFailsOver|TestReplicaFailedVerdictReachesClient|TestDiskFaultNemesis' \
		./internal/kvstore/disk/faultfs ./internal/cluster

## migration-smoke: the live-migration battery on fixed seeds — the rescale
## nemesis (8->12 grow under partitions and a forced mid-grow failover), the
## basic online grow, the multi-step placement golden vectors, and the
## migration figure end to end (CI "test" job; the same tests also run
## shuffled under -race via `race`)
migration-smoke:
	$(GO) test -count=1 -run 'TestGrowUnderFireNemesis|TestGrowBasic|TestGoldenVectorMultiStepGrowth|TestMigrationQuick' \
		./internal/cluster ./internal/placement ./internal/bench

## scan-smoke: the ordered-scan battery on fixed seeds — the ordered-index
## conformance battery (memory + disk engines, oracle under churn), the
## snapshot-across-pages and pin-vs-compaction proofs, the routed merge, the
## backfill linearity pin, and the scan-heavy workload-E figure (CI "test"
## job; the same tests also run shuffled under -race via `race`)
scan-smoke:
	$(GO) test -count=1 -run 'TestMemoryEngineConformance|TestDiskEngineConformance|TestIndexFoldPurgesGhostsAndDuplicates|TestScanExaminedLinear|TestScanConcurrentCreateSorted|TestScanHandlerPagesSorted|TestTxScanSnapshotAcrossPages|TestTxScanOverlaysBufferedWrites|TestScanPinHoldsCompaction|TestKVScanMergesGroups|TestRangeSnapshotPagingLinear|TestScansQuick' \
		./internal/kvstore ./internal/kvstore/disk ./internal/core ./internal/bench

## bench-smoke: one iteration of every benchmark + BENCH_ci.json (CI "bench" job)
bench-smoke:
	set -o pipefail; $(GO) test -bench . -benchtime 1x -run '^$$' ./... | tee bench.out
	$(GO) run ./cmd/paxosbench -benchjson bench.out -o BENCH_ci.json -context local

## perfbench-smoke: the repository benchmark's own tests (CI "bench" job).
## perfbench/ is a separate Go module, so the root `go test ./...` never
## reaches it; its tests check that BENCHMARK.json matches the program and
## smoke-run every workload end to end.
perfbench-smoke:
	cd perfbench && $(GO) test -count=1 .

## fig-smoke: scaled-down full figure regeneration (CI "bench" job)
fig-smoke:
	$(GO) run ./cmd/paxosbench -fig all -scale 0.01 -txns 60 -q

## shards-smoke: the horizontal-scaling sweep at smoke scale (CI "bench" job;
## the speedup column is informational at this scale — the pinned assertion
## is TestShardsScaling)
shards-smoke:
	$(GO) run ./cmd/paxosbench -fig shards -scale 0.01 -txns 240 -q

## saturation-smoke: the overload sweep at smoke scale (CI "bench" job;
## every run ends with the quiesce-aware serializability check — the
## plateau/p99 assertion is TestSaturationPlateau)
saturation-smoke:
	$(GO) run ./cmd/paxosbench -fig saturation -scale 0.01 -txns 240 -q

## durability-smoke: the fsync-policy sweep on the disk engine (CI "bench"
## job; runs at real fsync cost, no sim scaling — the batch ≥ 3x sync
## assertion is TestDurabilityBatchAbsorption)
durability-smoke:
	$(GO) run ./cmd/paxosbench -fig durability -txns 240 -q

## migration-fig-smoke: the online 8->12 grow under routed load at smoke
## scale (CI "bench" job; the bounded-pause and never-stalls assertions are
## TestMigrationQuick, which migration-smoke runs)
migration-fig-smoke:
	$(GO) run ./cmd/paxosbench -fig migration -scale 0.01 -q

## bench-json: convert existing go-bench output (BENCH_IN) to JSON
bench-json:
	$(GO) run ./cmd/paxosbench -benchjson $(or $(BENCH_IN),bench.out) -o BENCH_ci.json -context local

## bench-compare: rerun the hot-path benchmarks and diff against the
## committed BENCH_6.json baseline, flagging >20% regressions. Pass
## STRICT=1 to make regressions fail (what CI and `make check` gate on;
## bench-compare-strict is the alias both use). Time-based benchtime, not
## a fixed iteration count: the codec and store micro-benchmarks need
## ~10^5 iterations before their ns/op is stable enough to gate on.
bench-compare:
	set -o pipefail; $(GO) test -run '^$$' -bench 'BenchmarkReadThroughput|BenchmarkMessageCodec$$|BenchmarkReadMulti' \
		-benchtime 0.5s . ./internal/network ./internal/kvstore | tee bench-compare.out
	$(GO) run ./cmd/paxosbench -benchjson bench-compare.out -o BENCH_compare.json -context compare
	$(GO) run ./cmd/paxosbench -compare BENCH_6.json -against BENCH_compare.json $(if $(STRICT),-strict)

bench-compare-strict:
	$(MAKE) bench-compare STRICT=1

clean:
	rm -f bench.out BENCH_ci.json bench-compare.out BENCH_compare.json cover.txt
