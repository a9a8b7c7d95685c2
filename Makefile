GO ?= go
BENCHTIME ?= 3x

.PHONY: ci fmt vet guard test test-allocs test-retention test-determinism chaos bench bench-json bench-diff bench-pairs bench-smoke fuzz-smoke build loc

ci: fmt vet guard loc test test-allocs test-retention test-determinism

build:
	$(GO) build ./...

# Non-test Go lines outside bench/ (the judge is not the system) and
# testdata/ (fixtures no build compiles), per internal/ package and in
# total: the size ROADMAP and CHANGES quote.
# Every internal/ package has a line cap in loc-caps.txt; loc fails
# when a package exceeds its cap or has none. A PR that raises a cap
# edits loc-caps.txt in the same diff.
loc:
	@fail=0; for d in internal/*/; do \
		d=$${d%/}; n=$$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		cap=$$(awk -v d=$$d '$$1 == d { print $$2 }' loc-caps.txt); \
		printf '%7d  %-22s cap %s\n' "$$n" "$$d" "$${cap:-none}"; \
		if [ -z "$$cap" ] || [ "$$n" -gt "$$cap" ]; then echo "$$d is over its cap in loc-caps.txt"; fail=1; fi; \
	done; \
	printf '%7d  total, non-test Go outside bench/\n' \
		"$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' -exec cat {} + | wc -l)"; \
	exit $$fail

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# bench/ (the BENCHMARK.json judge) is a module of its own, so ./...
# does not reach it: vet and test it explicitly, or an internal/ API
# change breaks the benchmark with no check noticing.
vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...

# The tree's one guard, in one type-checked pass of cmd/deadapi
# (go/parser + go/types, stdlib, offline): no exported identifier under
# internal/ without a reference outside tests or a line with its reason
# in deadapi-allow.txt, and none of the design rules in
# cmd/deadapi/rules.go broken — each row holds its scope, its predicate
# and the reason it holds.
guard:
	$(GO) run ./cmd/deadapi

test:
	$(GO) test ./... -race
	$(GO) test -C bench ./...

# The allocation and footprint pins (alloc_test.go, footprint_test.go)
# are built with !race: the race detector allocates on its own, so the
# race pass of test never runs them. They run here, without it.
test-allocs:
	$(GO) test -count=1 -run 'Allocs|Footprint' ./...

# What the controller remembers: a finished job is stripped to its
# trace and only the newest retainTerminal stay known. Five times under
# the race detector: the strip runs in Engine.finish while REST readers
# may still hold the job, and eviction while watch streams do.
test-retention:
	$(GO) test -race -count=5 -run 'Retain|Evict|Strip' ./internal/controller ./internal/client

# The fault-injection suite under the race detector: seeded fault
# models (netem), crash/loss switch faults (switchsim), reverse-plan
# safety (core/verify/explore), the controller's abort→verified-
# rollback path in both dispatch modes including the chaos soak and the
# sink lifecycle of timed-out installs, the crash-restart sweeps
# (journal torn-tail recovery plus the engine killed at every dispatch
# boundary), two-phase jobs (rolled back in both dispatch modes, and
# swept by their own crash-restart runs), the switch's halt-and-barrier answer to a state query and
# the decentralized report the switches must be asked about and every
# decentralized controller test (the plan agent's acks, halts and
# reports under the race detector), the
# engine's admission and conflict-queue lifecycle
# (launch on release, shutdown of queued jobs, recovery order), the
# restart window (the journal's jobs admitted as the engine is built, a
# job submitted before Recover queued behind them, and the parent
# journal's recovery), and the
# clock's AfterFunc timers, a fleet at rest that leaves none pending
# and its one-reader goroutine budgets, the message types a switch or
# controller answers without hanging up (unsupported types, refused
# timeouts), and the connection lifecycle: handshakes on the switch's
# own goroutine, redials, read buffers returned to the pool and the
# controller's one shutdown hook.
chaos:
	$(GO) test -race -count=1 -run 'Fault|Chaos|Crash|Rollback|Reverse|Abort|TwoPhase|VirtualTime|TimedOut|Queued|Admission|Recover|AfterFunc|AtRest|Unsupported|TimeoutRefused|Goroutine|StateQuery|LostReport|Decentral|Reconnect|Handshake|Shutdown' \
		./internal/ofconn ./internal/netem ./internal/switchsim ./internal/core \
		./internal/verify ./internal/explore ./internal/controller \
		./internal/journal ./internal/simclock
	$(GO) test -run '^$$' -bench '^BenchmarkE15Soak$$' -benchtime=1x .

bench:
	$(GO) test -bench=. -benchtime=10x -run '^$$' .

# Same inputs => same explorer verdicts, same seed => same timed event
# logs; -count=2 defeats test caching so the explorer-determinism tests
# actually run twice.
# The second pass runs under the race detector: the parallel explorer
# (Workers > 1) must stay bit-identical and race-free.
test-determinism:
	$(GO) test -run Explore -count=2 ./...
	$(GO) test -run Explore -count=2 -race ./...

# Snapshot numbering: the newest checked-in BENCH_<n>.json is the
# previous PR's, this PR writes the next one. Derived from git's index,
# so re-running bench-json overwrites this PR's snapshot instead of
# minting another, and committing it moves the window by itself.
PREV = $(shell git ls-files 'BENCH_*.json' | tr -dc '0-9\n' | sort -n | tail -1)
N ?= $(shell expr $(PREV) + 1)

# Machine-readable benchmark trajectory: run every benchmark with
# -benchmem and emit BENCH_$(N).json (name -> ns/op, allocs/op, domain
# metrics) for future PRs to diff against. No pipe on the `go test`
# line: a benchmark failure must fail the target, not vanish into
# tee's exit status (bench.out is left behind for debugging).
bench-json:
	$(GO) test -bench . -benchmem -benchtime=$(BENCHTIME) -run '^$$' ./... > bench.out
	@cat bench.out
	$(GO) run ./cmd/benchjson -out BENCH_$(N).json < bench.out
	@rm -f bench.out
	@echo "wrote BENCH_$(N).json"

# Perf trajectory between the previous PR's snapshot and this one:
# per-benchmark ns/op and allocs/op movement. Informational (CI runs
# it non-gating); add -fail-on-regress locally to gate.
bench-diff:
	$(GO) run ./cmd/benchjson -diff BENCH_$(PREV).json BENCH_$(N).json

# The paired-run protocol a perf claim is judged by, as one command:
# BASE is exported into a temporary directory, then PAIRS times both
# trees run one BENCHMARK.json workload (seed = pair index, alternating
# which side goes first), each run's result line is kept, and benchjson
# prints per metric each side's quartiles and the pairs the working
# tree won. ~1 min per pair; a failed run (or a failed correctness
# gate) stops it.
#
#	make bench-pairs BASE=HEAD~1 WORKLOAD=wan-epochs PAIRS=10
BASE ?= HEAD~1
WORKLOAD ?= wan-epochs
PAIRS ?= 10
bench-pairs:
	@set -e; base="$$(mktemp -d)"; out="$$(mktemp -d)"; trap 'rm -rf "$$base"' EXIT; \
	git archive $(BASE) | tar -x -C "$$base"; \
	for i in $$(seq 1 $(PAIRS)); do \
		order="base change"; [ $$((i % 2)) = 0 ] && order="change base"; \
		for side in $$order; do \
			tree=.; [ $$side = base ] && tree="$$base"; \
			echo "pair $$i: $$side" >&2; \
			$(GO) run -C "$$tree/bench" ./tsubench --workload $(WORKLOAD) --seconds 20 --trace 0 --seed $$i > "$$out/last.log"; \
			grep '^{' "$$out/last.log" | tail -1 >> "$$out/$$side.jsonl"; \
		done; \
	done; \
	echo "runs kept in $$out" >&2; \
	$(GO) run ./cmd/benchjson -pairs "$$out/base.jsonl" "$$out/change.jsonl"

# One iteration of every benchmark in the repo: catches benchmark rot
# without paying for a measurement run.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

# Ten seconds of coverage-guided fuzzing per fuzz target: the OpenFlow
# wire decoder, the explorer's trace replay/minimization, the cursor
# every varint codec reads through (internal/wirefmt: any accepted
# read sequence writes back its own bytes), the plan wire codec's
# decode→encode identity (the one plan encoding: the journal's and the
# decentralized push's), the planwire payload decoders (push, report,
# state query and state report: no panic, decode→encode→decode is the
# identity, and a report or state query re-encodes to its own bytes),
# the push of any decodable plan to any switch (it re-encodes to its
# own bytes, or is refused when the switch owns no node), and the CEGIS
# synthesizer's validate/round-trip invariant on random instances,
# plus the job journal's replay: arbitrary bytes must replay to the
# longest valid record prefix, which the decoded records re-encode to,
# and never panic; and verify's one verdict search against exhaustive
# ideal enumeration on random DAGs over small instances, forward and
# reversed (same violated/clean answer, exact, a reachable witness);
# and a job's encoded trace: any sequence of install and tally records
# reads back as a plain-struct reference of the same records does.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecoder$$' -fuzztime=10s ./internal/wirefmt
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime=10s ./internal/openflow
	$(GO) test -run '^$$' -fuzz '^FuzzExploreTrace$$' -fuzztime=10s ./internal/explore
	$(GO) test -run '^$$' -fuzz '^FuzzPlanRoundTrip$$' -fuzztime=10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePayload$$' -fuzztime=10s ./internal/planwire
	$(GO) test -run '^$$' -fuzz '^FuzzPartitionRoundTrip$$' -fuzztime=10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzSynthRefine$$' -fuzztime=10s ./internal/synth
	$(GO) test -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime=10s ./internal/journal
	$(GO) test -run '^$$' -fuzz '^FuzzVerifyDAGStage$$' -fuzztime=10s ./internal/verify
	$(GO) test -run '^$$' -fuzz '^FuzzJobTrace$$' -fuzztime=10s ./internal/controller
