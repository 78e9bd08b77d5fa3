# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short race race-short loc bench bench-smoke bench-check bench-pairs chaos killrestart crashpoints fsck load load-smoke shard ingest replicate failover experiments fuzz codec-bench session-bench search-bench commit-bench reach clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Full race-detector run. The slowest harness tests carry -short guards,
# so `make race-short` is the quick pre-commit variant.
race:
	$(GO) test -race ./...

race-short:
	$(GO) test -race -short ./...

# Non-test Go lines per package outside bench/, total last — the table
# CHANGES.md reports before/after, so "the line count goes down" is a
# command. `make loc REF=<commit>` runs the same count over REF's
# committed files too (`git archive REF`, unpacked in a temp dir) and
# prints one row per package: the count at REF (parent), in the working
# tree (change) and the delta; a package one side lacks counts 0 there.
LOC_COUNT = find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -print0 | xargs -0 wc -l | \
	awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
	     END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }'

loc:
ifeq ($(REF),)
	@$(LOC_COUNT) | sort -k2,2 -s | \
		awk '$$2 == "total" { last = $$0; next } { print } END { print last }'
else
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; mkdir "$$tmp/ref"; \
	git archive "$(REF)" | tar -x -C "$$tmp/ref"; \
	(cd "$$tmp/ref" && $(LOC_COUNT)) > "$$tmp/parent"; $(LOC_COUNT) > "$$tmp/change"; \
	printf "%7s %7s %7s %s\n" parent change delta package; \
	awk 'FNR == NR { p[$$2] = $$1; seen[$$2] = 1; next } { c[$$2] = $$1; seen[$$2] = 1 } \
	     END { for (d in seen) printf "%7d %7d %+7d %s\n", p[d], c[d], c[d] - p[d], d }' "$$tmp/parent" "$$tmp/change" | \
		sort -k4,4 -s | awk '$$4 == "total" { last = $$0; next } { print } END { print last }'
endif

bench:
	$(GO) test -bench=. -benchmem .

# Every Benchmark* function in the root module executed once, no tests:
# vet only compiles them, so one that fails or panics at run time would
# otherwise pass CI. The numbers of a 1x run mean nothing.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The benchmark module (bench/, BENCHMARK.json) is a Go module of its
# own that the root build and tests never compile, so a changed
# signature under internal/ breaks it silently. This compiles, vets and
# short-tests it against the tree; `bash bench/run.sh` is the benchmark
# itself.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# The ten-pair protocol against a parent commit: REF's committed files
# and the working tree, PAIRS alternating pairs of the benchmark per
# workload, and per workload x end-to-end metric both medians, the
# parent's inter-quartile distance, wins/pairs and a verdict against the
# bound BENCHMARK.json sets. Usage: make bench-pairs REF=<commit>
# [WORKLOADS="write-durable diagnose"] [PAIRS=10]; about a minute a pair.
bench-pairs:
	REF="$(REF)" PAIRS="$(PAIRS)" WORKLOADS="$(WORKLOADS)" sh scripts/bench-pairs.sh

# Chaos soak under the race detector: the client→server→store pipeline
# with a seeded fault mix on the store's disk — record files and journal,
# through the commit that ships — must produce byte-identical diagnosis
# output to a fault-free run (chaosSeed in internal/server/chaos_test.go).
# Then the injector's own promise: the faults it fires depend on the
# seed, not on how the commit's stagers are scheduled.
chaos:
	$(GO) test -race -run 'TestChaos' -v ./internal/server/
	$(GO) test -race -count=1 -run 'TestFaultsKeyedUnderConcurrency' -v ./internal/history/

# Kill-9 recovery soak: a real pcd is SIGKILLed mid-write (under
# injected torn and failed writes of the journal and the record files)
# and mid-session, restarted, and must lose no acknowledged write, resume
# the orphaned session byte-identically, and leave a store pcfsck grades
# clean (killrestart_test.go).
killrestart:
	$(GO) test -race -run 'TestKillRestart' -v .

# Every crash point of one commit: Save, overwrite, Delete, PutBatch(3)
# and a PutBatch(3) that rotates the journal — creating the next segment,
# or switching to one made ahead of it — on a durable store, each
# once creating its record files and once staging them into spares; at every
# boundary of the commit (inside each journal frame, after the journal
# sync, after each staged file, after each rename, before the directory
# sync, after the next segment is created and after the closed one is
# discarded, in the commit or between commits, at the acknowledgement)
# the store directory is copied as a
# process death leaves it and imaged as a power loss does (only synced
# bytes and synced directory entries), every image reopened and held to
# the crash contract. Prints the points of each operation per mode and
# ops x points explored.
crashpoints:
	$(GO) test -count=1 -run 'TestCrashPoints' -v ./internal/history/

# Offline store verification. Usage: make fsck STORE=/path/to/store
# (add FSCK_FLAGS=-repair to fix what it finds). Exit code 0 = clean,
# 1 = crash residue, 2 = corruption.
STORE ?= /tmp/hist
fsck:
	$(GO) run ./cmd/pcfsck -store $(STORE) $(FSCK_FLAGS)

# Sustained-traffic load harness (cmd/pcload): drive a live pcd with a
# declarative scenario suite and verify correctness under load. Usage:
# make load SUITE=smoke (any suites/*.toml name, comma-separated for
# several; defaults to every suite).
SUITE ?= smoke
load:
	$(GO) run ./cmd/pcload -suite $(SUITE) -check -v

# The seconds-scale CI variant: the smoke suite only, with the
# correctness bar enforced (non-zero throughput, zero acked-write loss,
# pcfsck-clean store).
load-smoke:
	$(GO) run ./cmd/pcload -suite smoke -check

# Sharded-store smoke: the smoke suite against a self-hosted pcd over a
# 4-shard store kept at SHARD_DIR, an explicit offline pcfsck of the
# resulting sharded layout (exit 0 required), then the scatter-gather
# suite over its own 4-shard store.
SHARD_DIR ?= /tmp/pcshard-store
shard:
	rm -rf $(SHARD_DIR)
	$(GO) run ./cmd/pcload -suite smoke -shards 4 -dir $(SHARD_DIR) -check
	$(GO) run ./cmd/pcfsck -store $(SHARD_DIR)
	$(GO) run ./cmd/pcload -suite shard-scatter -check

# Streaming-ingestion smoke: pcfeed drives 8 concurrent archetype
# streams per wave into a self-hosted pcd with harvesting on (the
# post-run read-back sweep is part of -check), then the kept store must
# pcfsck clean.
INGEST_DIR ?= /tmp/pcingest-store
ingest:
	rm -rf $(INGEST_DIR)
	$(GO) run ./cmd/pcfeed -store $(INGEST_DIR) -streams 8 -waves 2 -harvest -check -v
	$(GO) run ./cmd/pcfsck -store $(INGEST_DIR)

# Replication smoke: the kill-the-primary and kill-the-follower process
# harnesses under the race detector (a real replicated pcd pair,
# SIGKILL, promotion, zero acked-write loss, cross-replica pcfsck), the
# replica layer's unit tests, then the replica-failover load suite (a
# shard primary killed mid-traffic, the follower taking over).
replicate:
	$(GO) test -race -run 'TestKillPrimaryFailover|TestKillFollowerMidApply' -v .
	$(GO) test -race -short ./internal/replica/
	$(GO) run ./cmd/pcload -suite replica-failover -check -v

# Automatic failover smoke: SIGKILL the primary process under load with
# NO scripted promote — the lease-based failure detector must elect and
# promote the follower on its own, fence the revived zombie with the
# typed 409, and lose nothing acked. Then the flapping harness (three
# kill/revive cycles, exactly one writable primary at every step), then
# the replica package under the race detector (-short is the explorer's
# small budget: its states cost ten times the memory there), the explorer
# at full width without it, then the auto-failover load suite (`pcd
# -auto-failover` and its follower hosted in-process, a shard backend
# killed mid-traffic, no operator; -check fails on one 409 fenced).
failover:
	$(GO) test -race -run 'TestKillPrimaryAutoFailover|TestFailoverFlapping' -v .
	$(GO) test -race -short ./internal/replica/
	$(GO) test -run 'TestExplore|TestRoleStepIsPure' -v ./internal/replica/
	$(GO) run ./cmd/pcload -suite auto-failover -check -v

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/pcbench -exp all -trials 3

# Every fuzz target of the module for 10 s: each package's Fuzz*
# functions are found by `go test -list`, so a new one runs here, and in
# CI, which runs this target, without being listed anywhere.
fuzz:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "$$pkg $$target"; \
			$(GO) test -fuzz "^$$target\$$" -fuzztime 10s $$pkg; \
		done; \
	done

# The wire codec's benchmarks, each against encoding/json: a record's
# encode and decode, a put body through the handler, a get through the
# handler (the stored bytes beside the encode they replace), a query
# response, a directive set's round trip, a sample batch and a trace
# file; and a batch body of eight real records (DecodePutBatch/real8),
# which has no encoding/json twin. One package at a time (-p 1), so that no two run side by side.
codec-bench:
	$(GO) test -p 1 -run '^$$' -bench 'Record(En|De)code|PutBody|DecodePutBatch|GetRun|QueryResponse(En|De)code|DirectiveRoundTrip|Samples(En|De)code|ReadTrace' \
		-benchmem -count 5 ./internal/history/ ./internal/server/ ./internal/ingest/ ./internal/postmortem/

# A diagnosis session in process, without the wire and the store: the
# diagnose workload's six directed sessions per op — sim, dyninst and the
# consultant. Compare ns/op against a parent in alternating `go test -c`
# binaries; pairs/op must not move.
session-bench:
	$(GO) test -run '^$$' -bench DiagnoseSession -benchmem -count 5 ./internal/harness/

# The diagnosis search wherever it builds its pairs: a whole
# directed stream through Engine.Feed (mw, pipeline) and Engine.Finalize
# of the mw stream (internal/ingest), and the diagnose workload's six
# directed sessions (internal/harness). One package at a time (-p 1).
# allocs/op is what testdata/cost.golden pins; compare ns/op against a
# parent in alternating `go test -c` binaries.
search-bench:
	$(GO) test -p 1 -run '^$$' -bench 'EngineFeed|EngineFinalize|DiagnoseSession' -benchmem -count 5 ./internal/ingest/ ./internal/harness/

# A commit's disk work in process, without the wire: k=1 and k=8 records
# of the corpus's mean size at SyncAlways, as a put and as a follower's
# apply, back to back and idle (a closed-loop client's gap before each,
# when a store makes its spare record files and its next journal
# segment), and rotate: a put that crosses a segment boundary after
# such a gap. On tmpfs a create and an
# fsync cost nothing: point TMPDIR at the disk a store lives on.
commit-bench:
	$(GO) test -run '^$$' -bench '^Benchmark(Commit|ApplyRun)$$' -benchtime 300x -count 5 ./internal/history/

# Which non-test functions no production path runs: every command and
# example built once with coverage, every pcload suite, pcbench, pcfeed,
# the examples and a CLI sequence (pcrun, pcextract, pctrace, pccompare,
# pcquery against a store and a covered pcd, writes and a keyed
# diagnosis over the wire, pcfsck -repair of damaged copies) run under
# GOCOVERDIR; each function `go tool covdata func` reads at 0 % must be
# in testdata/reach.allow with its reason. Writes testdata/reach.txt and
# fails naming what is unreached and not allowed (about a minute).
reach:
	sh scripts/reach.sh

clean:
	$(GO) clean -testcache
