GO ?= go
BENCHTIME ?= 3x

.PHONY: ci fmt vet guard-southbound guard-one-plan guard-dense-core guard-one-heap guard-one-trace guard-one-reconcile guard-one-fsync test test-retention test-determinism chaos bench bench-json bench-diff bench-pairs bench-smoke fuzz-smoke build loc

ci: fmt vet guard-southbound guard-one-plan guard-dense-core guard-one-heap guard-one-trace guard-one-reconcile guard-one-fsync loc test test-retention test-determinism

build:
	$(GO) build ./...

# Non-test Go lines outside bench/ (the judge is not the system), per
# internal/ package and in total: the size ROADMAP and CHANGES quote.
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
		"$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec cat {} + | wc -l)"; \
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

# One southbound path, one writer per walk: every FlowMod+barrier pair
# the controller sends goes through Engine.walk, which writes its own
# installs — the walk's re-stamped request in dispatch.go is the one
# BarrierRequest the package builds, and its one WriteBatch call there
# the one install write. Anything else naming the type outside tests is
# a second path coming back; a second WriteBatch call is a second
# install writer, and a go statement in dispatch.go a writer goroutine.
guard-southbound:
	@out="$$(grep -n 'BarrierRequest' internal/controller/*.go | grep -v -e '_test\.go:' -e '/dispatch\.go:')"; \
	if [ -n "$$out" ] || [ "$$(grep -c 'BarrierRequest' internal/controller/dispatch.go)" != 1 ]; then \
		echo "BarrierRequest outside the walk's one site (internal/controller/dispatch.go):"; \
		echo "$$out"; exit 1; \
	fi; \
	if [ "$$(grep -c 'WriteBatch(' internal/controller/dispatch.go)" != 1 ] || grep -nE '^[[:space:]]*go[[:space:]]' internal/controller/dispatch.go; then \
		echo "internal/controller/dispatch.go must hold exactly one WriteBatch( call and no go statement: one writer per walk"; \
		exit 1; \
	fi

# One plan IR: every scheduler returns a *core.Plan, and rounds are
# only a view of a layered plan (core.Layered). Outside bench/, test
# files included, nothing names a round schedule or the capability
# that once converted between the two. The one exception is
# internal/core/deprecated.go, whose code is pinned to the three
# aliases bench/ still compiles against, with no logic of their own.
guard-one-plan:
	@out="$$( { grep -rn --include='*.go' -e 'core\.Schedule\b' -e 'ScheduleByName' -e 'PlanFromSchedule' -e 'PlanScheduler' . \
			| grep -v '^\./bench/'; \
		grep -nw 'Schedule' internal/core/*.go | sed 's|^|./|'; } | sort -u \
		| grep -v '^\./internal/core/deprecated\.go:')"; \
	if [ -n "$$out" ]; then \
		echo "a second plan IR (see guard-one-plan in the Makefile):"; \
		echo "$$out"; exit 1; \
	fi; \
	if [ "$$(grep -v -e '^//' -e '^$$' internal/core/deprecated.go)" != "$$(printf '%s\n' 'package core' \
			'type Schedule = Plan' \
			'func ScheduleByName(in *Instance, name string, props Property) (*Plan, error) {' \
			'	return PlanByName(in, name, props, false)' '}' \
			'func PlanFromSchedule(p *Plan) *Plan { return p }')" ]; then \
		echo "internal/core/deprecated.go holds more than the three aliases bench/ names (see guard-one-plan in the Makefile)"; \
		exit 1; \
	fi

# One index: internal/core keeps every per-switch fact of an update in
# arrays and State bitsets over Instance's dense index, and resolves a
# NodeID with one binary search (Instance.idx). A map[topo.NodeID] in a
# non-test file there is the second representation coming back — it did
# once already, beside the index. Allowed: multipolicy.go's cross-flow
# tables (keyed across instances, which share no index) and
# partition.go's per-switch wire view.
guard-dense-core:
	@out="$$(grep -n 'map\[topo\.NodeID\]' internal/core/*.go \
		| grep -v -e '_test\.go:' -e '^internal/core/multipolicy\.go:' -e '^internal/core/partition\.go:')"; \
	if [ -n "$$out" ]; then \
		echo "a NodeID-keyed map in internal/core (see guard-dense-core in the Makefile):"; \
		echo "$$out"; exit 1; \
	fi

# One timer heap: every delay under internal/ is an event on
# simclock's (time, seq) queue or a runtime timer behind Clock, and a
# switch has one layout. A second container/heap (or a hand-rolled
# pushLocked / popLocked pair) outside internal/simclock is a private
# scheduler coming back; LoopGroup, or Loops inside switchsim, named
# outside the inert shim (loops.go), the deprecated Config field's own
# line and bench/ is the layout knob coming back — a Loops: setting
# elsewhere needs a LoopGroup to hold, which is caught by name.
guard-one-heap:
	@out="$$( { grep -rn --include='*.go' -e '"container/heap"' -e 'func .*\b\(pushLocked\|popLocked\)(' internal \
			| grep -v '^internal/simclock/'; \
		grep -rn --include='*.go' 'LoopGroup' cmd examples internal *.go; \
		grep -nw 'Loops' internal/switchsim/*.go; } \
		| grep -v -e '_test\.go:' -e '^internal/switchsim/loops\.go:' \
			-e '^internal/switchsim/switch\.go:[0-9]*:	Loops \*LoopGroup$$' | sort -u)"; \
	if [ -n "$$out" ]; then \
		echo "a second timer heap or switch layout (see guard-one-heap in the Makefile):"; \
		echo "$$out"; exit 1; \
	fi

# One trace: a job's install log is the one record of its progress, and
# rounds, the event stream and the status body are views of it that a
# Cursor derives. A channel or a slice of JobEvents in a non-test file of
# internal/controller is a second record — a publish log, or a buffer per
# watcher — coming back.
guard-one-trace:
	@out="$$(grep -n -e 'chan JobEvent' -e '\[\]JobEvent' internal/controller/*.go | grep -v '_test\.go:')"; \
	if [ -n "$$out" ]; then \
		echo "a second progress trace in internal/controller (see guard-one-trace in the Makefile):"; \
		echo "$$out"; exit 1; \
	fi

# One fault model: every abort and every restart learns what took effect
# from the switches themselves, through reconcile in
# internal/controller/recover.go. A downClosure( call outside recover.go
# is an abort site computing its own undo set again; a querySwitchState
# call from anywhere but reconcile is a second way of asking; pushErr is
# the decentralized push failure's wait-it-out path coming back.
guard-one-reconcile:
	@out="$$( { grep -n 'downClosure(' internal/controller/*.go \
			| grep -v -e '_test\.go:' -e '^internal/controller/recover\.go:'; \
		awk 'FNR == 1 { fn = "" } /^func / { fn = $$0 } \
			/querySwitchState\(/ && !/^func / && fn !~ /\) reconcile\(/ { print FILENAME ":" FNR ": " $$0 }' \
			internal/controller/*.go | grep -v '_test\.go:'; \
		grep -rn --include='*.go' 'pushErr' . | grep -v '_test\.go:'; } )"; \
	if [ -n "$$out" ]; then \
		echo "a second fault model (see guard-one-reconcile in the Makefile):"; \
		echo "$$out"; exit 1; \
	fi

# One fsync site, one record per wave: every append's fsync runs in the
# journal's commit, where concurrent appends share it (group commit),
# and Compact syncs its snapshot and the directory. A .Sync() anywhere
# else in internal/journal — other than j.Sync(), a call of Journal.Sync,
# which goes through commit — is a private fsync coming back. The engine
# writes admit, dispatched-batch and terminal records only: KindDispatched
# or KindConfirmed in non-test controller code is a record per node
# coming back, and Replayed( the record slice a restart used to hold
# instead of Open's fold.
guard-one-fsync:
	@out="$$( { awk 'FNR == 1 { fn = "" } /^func / { fn = $$0 } \
			/\.Sync\(\)/ && !/^func / && !/(^|[^.[:alnum:]_])j\.Sync\(\)/ && fn !~ /\) (commit|Compact)\(/ { print FILENAME ":" FNR ": " $$0 }' \
			internal/journal/*.go | grep -v '_test\.go:'; \
		grep -n 'journal\.Kind\(Dispatched\|Confirmed\)\b' internal/controller/*.go | grep -v '_test\.go:'; \
		grep -rn --include='*.go' 'Replayed(' . | grep -v '_test\.go:'; } )"; \
	if [ -n "$$out" ]; then \
		echo "a second fsync site or a record per node (see guard-one-fsync in the Makefile):"; \
		echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./... -race
	$(GO) test -C bench ./...

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
# boundary), the switch's halt-and-barrier answer to a state query and
# the decentralized report the switches must be asked about, the
# engine's admission and conflict-queue lifecycle
# (launch on release, shutdown of queued jobs, recovery order), and the
# clock's AfterFunc timers with the switch duties that ride them (the
# expiry sweep chain, the one-reader goroutine budgets).
chaos:
	$(GO) test -race -count=1 -run 'Fault|Chaos|Crash|Rollback|Reverse|Abort|VirtualTime|TimedOut|Queued|Admission|AfterFunc|Sweep|Goroutine|StateQuery|LostReport' \
		./internal/netem ./internal/switchsim ./internal/core \
		./internal/verify ./internal/explore ./internal/controller \
		./internal/journal ./internal/simclock
	$(GO) test -run '^$$' -bench '^BenchmarkE15Soak$$' -benchtime=1x .

bench:
	$(GO) test -bench=. -benchtime=10x -run '^$$' .

# Same seed => same explorer verdicts and event logs; -count=2 defeats
# test caching so the explorer-determinism tests actually run twice.
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
# wire decoder, the explorer's trace replay/minimization, the plan
# wire codec's decode→encode identity, the partition codec that
# ships per-switch plan slices to the decentralized agents, and the
# CEGIS synthesizer's validate/round-trip invariant on random
# instances, plus the job journal's replay: arbitrary bytes must
# replay to the longest valid record prefix and never panic.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime=10s ./internal/openflow
	$(GO) test -run '^$$' -fuzz '^FuzzExploreTrace$$' -fuzztime=10s ./internal/explore
	$(GO) test -run '^$$' -fuzz '^FuzzPlanRoundTrip$$' -fuzztime=10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzPartitionRoundTrip$$' -fuzztime=10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzSynthRefine$$' -fuzztime=10s ./internal/synth
	$(GO) test -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime=10s ./internal/journal
