# Targets mirror .github/workflows/ci.yml one to one (and `explore`
# fuzz-nightly.yml's explore job), so a green
# `make ci` locally means a green CI run.

GO ?= go

# Pinned staticcheck release; CI and local runs must agree on the
# check set, so bump this deliberately, not implicitly.
STATICCHECK_VERSION ?= 2025.1.1

# sybilbench run parameters (make sybilbench / sybilbench-trace).
WORKLOAD ?= campaign-saturate
SEED ?= 7
SECONDS ?= 20

.PHONY: all build test race alloc-budget daemon-smoke sybilbench-test sybilbench sybilbench-trace bench bench-gate fuzz-smoke explore profile profile-live loc fmt vet docs staticcheck ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The allocation gates that are resolvable in CI (bytes per event, not
# time): the broker's live path and the detector's state, plus the
# pinned bytes of internal/campaign, which both budgets draw their
# feeds from. Mirrors ci.yml's "live-path buffer aliasing + allocation
# budget" step.
alloc-budget:
	$(GO) test -race -count=1 ./internal/campaign
	$(GO) test -race -run 'TestRetainedPayloadsNeverAliasScratch|TestPublisherResendsByteIdentical|TestPublisherSteadyFlushAllocatesNoPayload|TestLivePathAllocBudget|TestDrainersWaitForOwedEvents' -count=1 -v ./internal/stream
	$(GO) test -race -run 'TestDetectorStateAllocBudget|TestSteadyIngestAllocatesNothing' -count=1 -v ./internal/detector

# The three daemons end to end, each in its one role: streamd brokers
# (spooled, so start order does not matter), detectd backfills the feed
# from sequence 1, and one renrend produces a small campaign. Gated on
# exit codes and exact counts only, never on timing: every daemon exits
# 0, the broker delivers all E events it sent and evicts no session,
# and the producer's published count and detectd's `feed ended: E
# events` equal the broker's E. A second leg, on a broker of its own,
# runs the same campaign through two `-partition i/2 -handoff` daemons,
# then `detectd -rebalance 2/3` once the producer is done, then three
# `-partition j/3 -handoff` daemons. Gated on exact values again: both
# old daemons retire at a barrier B equal to the leg's sent count, which
# counts the cutover record the prepare appends as the feed's last
# sequence (the campaign's events plus one), each
# new one adopts the cut and resumes at B+1, the new daemons' flagged
# counts sum to the first leg's FLAG lines, and the broker evicts no
# session. A third leg, again on a broker of its own with a long
# -linger, runs the campaign through a whole-feed detectd, two
# `-partition 0/2 -handoff` daemons (one waits as the spare) and one
# `-partition 1/2`, then stops the broker with kill -TERM once the
# producer is done. Gated on exact values: every process exits 0, the
# broker's audit reads sent=E delivered=3E (delivered sums over the
# three admitted sessions) with no session evicted, the whole-feed
# daemon received all E events, exactly one 0/2 daemon prints the
# spare's line, and the owners' flagged counts sum to the first leg's
# FLAG lines. Mirrors ci.yml's "daemon smoke" step.
daemon-smoke:
	@d=$$(mktemp -d); trap 'kill $$(jobs -p) 2>/dev/null; rm -rf "$$d"' EXIT; \
	fail() { echo "daemon-smoke: $$*" >&2; tail -n 20 $$d/*.out >&2; exit 1; }; \
	for c in streamd detectd renrend; do $(GO) build -o $$d/$$c ./cmd/$$c || exit 1; done; \
	$$d/streamd -addr 127.0.0.1:0 -spool-dir $$d/spool -linger 10s -stats-every 0 >$$d/streamd.out 2>&1 & sp=$$!; \
	for i in $$(seq 100); do grep -q '^broker on' $$d/streamd.out && break; sleep 0.1; done; \
	addr=$$(sed -n 's/^broker on \([^;]*\);.*/\1/p' $$d/streamd.out); \
	[ -n "$$addr" ] || fail "streamd did not start"; \
	$$d/detectd -addr $$addr -from-start -check-every 3 >$$d/detectd.out 2>&1 & dp=$$!; \
	$$d/renrend -addr $$addr -normals 1500 -sybils 20 -hours 150 >$$d/renrend.out 2>&1 || fail "renrend exited $$?"; \
	wait $$sp || fail "streamd exited $$?"; \
	wait $$dp || fail "detectd exited $$?"; \
	e=$$(sed -n 's/^sent=\([0-9]*\) delivered=\1 encodes=[0-9]* sessions_evicted=0$$/\1/p' $$d/streamd.out); \
	[ -n "$$e" ] || fail "streamd audit is not sent=E delivered=E ... sessions_evicted=0"; \
	grep -q "^producer p0: published $$e events " $$d/renrend.out || fail "renrend did not publish $$e events"; \
	grep -q "^feed ended: $$e events " $$d/detectd.out || fail "detectd did not receive $$e events"; \
	f=$$(grep -c '^FLAG ' $$d/detectd.out); \
	echo "daemon-smoke: $$e events produced, sent, delivered and detected; $$f accounts flagged"; \
	$$d/streamd -addr 127.0.0.1:0 -spool-dir $$d/rspool -linger 10s -stats-every 0 >$$d/rstreamd.out 2>&1 & sp=$$!; \
	for i in $$(seq 100); do grep -q '^broker on' $$d/rstreamd.out && break; sleep 0.1; done; \
	addr=$$(sed -n 's/^broker on \([^;]*\);.*/\1/p' $$d/rstreamd.out); \
	[ -n "$$addr" ] || fail "rebalance leg: streamd did not start"; \
	ps=; for i in 0 1; do $$d/detectd -addr $$addr -partition $$i/2 -handoff -from-start -check-every 3 >$$d/old$$i.out 2>&1 & ps="$$ps $$!"; done; \
	$$d/renrend -addr $$addr -normals 1500 -sybils 20 -hours 150 >$$d/rrenrend.out 2>&1 || fail "rebalance leg: renrend exited $$?"; \
	$$d/detectd -addr $$addr -rebalance 2/3 >$$d/prepare.out 2>&1 || fail "detectd -rebalance 2/3 exited $$?"; \
	for j in 0 1 2; do $$d/detectd -addr $$addr -partition $$j/3 -handoff -check-every 3 >$$d/new$$j.out 2>&1 & ps="$$ps $$!"; done; \
	for p in $$ps; do wait $$p || fail "rebalance leg: a detectd exited $$?"; done; \
	wait $$sp || fail "rebalance leg: streamd exited $$?"; \
	b=$$(sed -n 's/^sent=\([0-9]*\) delivered=[0-9]* encodes=[0-9]* sessions_evicted=0$$/\1/p' $$d/rstreamd.out); \
	[ -n "$$b" ] || fail "rebalance leg: streamd audit is not sent=B ... sessions_evicted=0"; \
	for i in 0 1; do grep -q "^partition group 2 rebalanced to 3 at barrier $$b; retiring$$" $$d/old$$i.out || fail "daemon $$i/2 did not retire at barrier $$b"; done; \
	n=0; for j in 0 1 2; do \
		grep -q "^adopted the cut of partition group 2 at barrier $$b for partition $$j/3: .*, resuming feed at seq $$((b + 1))$$" $$d/new$$j.out || fail "daemon $$j/3 did not adopt the cut at $$b"; \
		x=$$(sed -n 's/^feed ended: .*, \([0-9]*\) flagged$$/\1/p' $$d/new$$j.out); \
		[ -n "$$x" ] || fail "daemon $$j/3 printed no feed ended line"; \
		n=$$((n + x)); \
	done; \
	[ "$$n" -eq "$$f" ] || fail "the new daemons flagged $$n accounts, the first leg $$f"; \
	echo "daemon-smoke: rebalance 2 -> 3 at barrier $$b: both old daemons retired there, the three new ones adopted the cut and hold all $$n flags"; \
	$$d/streamd -addr 127.0.0.1:0 -spool-dir $$d/tspool -linger 10m -stats-every 0 >$$d/tstreamd.out 2>&1 & sp=$$!; \
	for i in $$(seq 100); do grep -q '^broker on' $$d/tstreamd.out && break; sleep 0.1; done; \
	addr=$$(sed -n 's/^broker on \([^;]*\);.*/\1/p' $$d/tstreamd.out); \
	[ -n "$$addr" ] || fail "TERM leg: streamd did not start"; \
	$$d/detectd -addr $$addr -from-start -check-every 3 >$$d/twhole.out 2>&1 & ps=$$!; \
	for o in t0a t0b; do $$d/detectd -addr $$addr -partition 0/2 -handoff -from-start -check-every 3 >$$d/$$o.out 2>&1 & ps="$$ps $$!"; done; \
	$$d/detectd -addr $$addr -partition 1/2 -handoff -from-start -check-every 3 >$$d/t1.out 2>&1 & ps="$$ps $$!"; \
	$$d/renrend -addr $$addr -normals 1500 -sybils 20 -hours 150 >$$d/trenrend.out 2>&1 || fail "TERM leg: renrend exited $$?"; \
	kill -TERM $$sp; \
	wait $$sp || fail "TERM leg: streamd exited $$? on kill -TERM"; \
	for p in $$ps; do wait $$p || fail "TERM leg: a detectd exited $$?"; done; \
	e=$$(sed -n 's/^sent=\([0-9]*\) delivered=[0-9]* encodes=[0-9]* sessions_evicted=0$$/\1/p' $$d/tstreamd.out); \
	[ -n "$$e" ] && grep -q "^sent=$$e delivered=$$((3 * e)) encodes=[0-9]* sessions_evicted=0$$" $$d/tstreamd.out || fail "TERM leg: streamd audit is not sent=E delivered=3E (three sessions) ... sessions_evicted=0"; \
	grep -q "^feed ended: $$e events " $$d/twhole.out || fail "TERM leg: the whole-feed detectd did not receive $$e events"; \
	[ "$$(cat $$d/t0a.out $$d/t0b.out | grep -c '^partition 0/2: the feed ended while this worker waited; nothing to judge$$')" -eq 1 ] || fail "TERM leg: not exactly one 0/2 daemon printed the spare's line"; \
	n=0; for o in t0a t0b t1; do \
		x=$$(sed -n 's/^feed ended: .*, \([0-9]*\) flagged$$/\1/p' $$d/$$o.out); \
		n=$$((n + $${x:-0})); \
	done; \
	[ "$$n" -eq "$$f" ] || fail "TERM leg: the owners flagged $$n accounts, the first leg $$f"; \
	echo "daemon-smoke: kill -TERM: streamd drained all $$e events and exited 0, the spare ended cleanly, the owners hold all $$n flags"

# benchmark/ is its own module compiled against this one's public API,
# so tier-1 `go test ./...` does not cover it: a root-API change that
# breaks the sybilbench harness shows up here, not at benchmark time.
sybilbench-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# One run of the repo's benchmark (BENCHMARK.json): the six end-to-end
# metrics with tracing off, or the traced run that adds the per-layer
# rows. Timed, so neither is part of `make ci` — CI timing is not
# resolvable; the allocation gates that are live in tier-1
# (`make alloc-budget`).
sybilbench:
	bash benchmark/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds $(SECONDS) --trace 0

sybilbench-trace:
	bash benchmark/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds $(SECONDS) --trace 1

# Single-iteration pass over every benchmark: proves they run, reports
# the reproduced paper metrics, stays inside a CI budget. The codec
# benchmarks in internal/wire run here short too.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Relative gates within one run, so they survive noisy shared
# hardware; CI's bench-smoke job fails loudly when one trips. benchjson
# evaluates every -gate it is given (TestMakefileGatesArmed in
# cmd/benchjson proves each line below can fail the target), and each
# multiplier sits within 2x of the ratio measured on a 2-vCPU box.
#
# The partitioned-cluster gate bounds 4 partition-gated pipelines
# against 1 whole-feed pipeline. Total cluster work at K=4 is ~2.7x
# the single log (accepts replicate to every partition, requests to
# two) and single-core runners serialize the workers, so the bound is
# 4x: loose enough to pass where no parallelism exists, tight enough
# to catch filtering or contention pathologies.
#
# The live-rebalance gates bound the cutover pause — split/merge-re-key
# the K snapshots and restore the K' new pipelines — at 100k accounts,
# relative to one 100k-account restore (BenchmarkRestore) in the same
# run, so runner speed cancels. Restore is the cutover's dominant cost:
# accepts replicate to every partition, so each of the K' pipelines
# rebuilds the whole graph. Measured ratios are ~5 (3->5, 4.2-6.9 over
# ten runs on a shared 2-vCPU box) and ~2.6 (4->2, 1.9-3.0); the bounds
# are 10x and 5x.
#
# The relay gates are the relay tier's claims as invariants. Root
# ingest (broadcast through the hop's adoption) with 64 subscribers
# attached to the edge is bounded against the same hop with none; the
# subscribers hold their reads until the timer stops, because their
# drain is not ingest. On a 2-vCPU box the edge's 64 socket writers
# still share the root's cores (median ~1.6x, 0.9-2.8 over a dozen
# runs on a shared box), so the 3x bound catches work per downstream
# subscriber on the ingest path (~64x), not the last bit of
# contention. One run of that pair still went over the bound in 10 of
# 46 runs on a loaded box, so it runs five times in a shell loop and
# benchjson compares medians, as for the tree pair. A 2-level tree (2 edges x 64 subscribers, full drain)
# must stay near parity with one broker draining 128 directly: ~1.03
# measured at 200k events (0.91-1.18 over ten runs on a shared box),
# bound 1.3x — a tree that paid per-hop re-encodes or serialized its
# edges would land well past it. The tree wins outright on multi-core
# hardware. One run of the pair tripped the bound about once in six on
# a loaded box, so the pair runs five times in a shell loop (the two
# sides alternate, ~0.7 s a run) and benchjson compares their medians.
#
# The publish multi-core gate is ROADMAP's scaling evidence armed: 4
# producers at GOMAXPROCS=4 vs the same at GOMAXPROCS=1. On multi-core
# hardware the concurrent encode/fan-out overlap makes -4 faster; a
# single-core runner can only lose to scheduler thrash (~1.9x
# observed), so the bound is 2.5x — loose enough for 1 CPU, tight
# enough to catch a sequencer that re-grew serialized work under
# contention.
bench-gate:
	$(GO) test -bench=BenchmarkPartitionedIngest -benchtime=1x -run='^$$' ./internal/cluster | \
		$(GO) run ./cmd/benchjson \
		-gate 'BenchmarkPartitionedIngest/workers=4<=BenchmarkPartitionedIngest/workers=1*4.0'
	$(GO) test -bench='^BenchmarkRestore$$|^BenchmarkLiveRebalance$$' -benchtime=3x -run='^$$' ./internal/detector | \
		$(GO) run ./cmd/benchjson \
		-gate 'BenchmarkLiveRebalance/k=4to2<=BenchmarkRestore/accounts=100000*5.0' \
		-gate 'BenchmarkLiveRebalance/k=3to5<=BenchmarkRestore/accounts=100000*10.0'
	for i in 1 2 3 4 5; do \
		$(GO) test -bench='BenchmarkRelayFanout/root-downstream' -benchtime=50000x -run='^$$' ./internal/stream || exit 1; \
	done | \
		$(GO) run ./cmd/benchjson \
		-gate 'BenchmarkRelayFanout/root-downstream=64<=BenchmarkRelayFanout/root-downstream=0*3.0'
	for i in 1 2 3 4 5; do \
		$(GO) test -bench='BenchmarkRelayFanout/(flat|tree)' -benchtime=200000x -run='^$$' ./internal/stream || exit 1; \
	done | \
		$(GO) run ./cmd/benchjson \
		-gate 'BenchmarkRelayFanout/tree-edges=2x64<=BenchmarkRelayFanout/flat-subs=128*1.3'
	$(GO) test -bench=BenchmarkPublishIngest -benchtime=20000x -run='^$$' -cpu=1,4 ./internal/stream | \
		$(GO) run ./cmd/benchjson \
		-gate 'BenchmarkPublishIngest/producers=4-4<=BenchmarkPublishIngest/producers=4*2.5'

# Short deterministic fuzz pass over the wire codecs: each target runs
# its committed corpus plus a few seconds of new coverage-guided
# inputs. Crashes fail the build; new interesting inputs stay in the
# local build cache (promote them to testdata/fuzz to commit them).
fuzz-smoke:
	@for tgt in FuzzBatch FuzzPBatch FuzzFBatch FuzzSplice FuzzReadFrame; do \
		$(GO) test ./internal/wire/ -run='^$$' -fuzz "^$$tgt$$" -fuzztime 5s || exit 1; \
	done

# The control-plane explorer two levels deeper than tier-1 does.
# Mirrors fuzz-nightly.yml's explore job, so the nightly check can run
# before a merge.
explore:
	$(GO) test ./internal/stream/ -run '^TestControlPlaneExplorer$$' -count=1 -v -timeout 50m -explore.depth=10

# CPU + allocation profiles of the path the workers run: K=2
# partition-gated reconstruction pipelines over a 100k-account campaign
# in 256-event Ingest calls (BenchmarkIngest, ns/ev and B/ev). Inspect
# with `go tool pprof detector.test cpu.pprof` /
# `go tool pprof -sample_index=alloc_space detector.test mem.pprof`.
profile:
	$(GO) test -bench='^BenchmarkIngest$$' -benchtime=5x -run='^$$' -benchmem \
		-cpuprofile cpu.pprof -memprofile mem.pprof ./internal/detector
	@echo "profiles written: cpu.pprof mem.pprof (binary: detector.test)"

# The same for the broker's live path: wire-fed ingest and the relay
# hop, then the codec calls they are built on (root splice, relay
# views, worker parse; one 256-event chunk each, ns/ev reported).
# `go tool pprof -sample_index=alloc_space -top live-mem.pprof` lists
# the allocation sites docs/ARCHITECTURE.md "Buffer ownership" accounts
# for.
profile-live:
	$(GO) test -bench='^(BenchmarkPublishIngest|BenchmarkRelayFanout)$$' -benchtime=20000x -run='^$$' -benchmem \
		-cpuprofile live-cpu.pprof -memprofile live-mem.pprof ./internal/stream
	$(GO) test -bench='^(BenchmarkParseBatch|BenchmarkParseFBatch|BenchmarkSplicePBatch|BenchmarkPartitionView)$$' \
		-benchtime=20000x -run='^$$' -benchmem \
		-cpuprofile wire-cpu.pprof -memprofile wire-mem.pprof ./internal/wire
	@echo "profiles written: live-cpu.pprof live-mem.pprof (binary: stream.test), wire-cpu.pprof wire-mem.pprof (binary: wire.test)"

# Size per package of the root module: code lines (non-blank, not a
# `//` comment) and physical lines of the non-test Go files, then the
# module's total — the counts ROADMAP and CHANGES quote.
loc:
	@printf '%6s %6s  %s\n' code lines package
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
	while read pkg files; do \
		[ -n "$$files" ] || continue; \
		awk -v pkg="$$pkg" '{ s = $$0; sub(/^[ \t]+/, "", s); if (s != "" && substr(s, 1, 2) != "//") n++ } \
			END { printf "%6d %6d  %s\n", n, NR, pkg }' $$files; \
	done | awk '{ print; code += $$1; lines += $$2 } END { printf "%6d %6d  total\n", code, lines }'

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Documentation gate: vet plus a check that every package (library and
# command alike) carries a package comment following the repo's
# `// Package <name>` / `// Command <name>` convention, so `go doc`
# always has something to say.
docs: vet
	@fail=0; \
	for d in $$($(GO) list -f '{{.Dir}}' ./...); do \
		if ! grep -q -E '^// (Package|Command) ' $$d/*.go; then \
			echo "missing package comment: $$d" >&2; fail=1; \
		fi; \
	done; \
	if [ $$fail -ne 0 ]; then exit 1; fi; \
	echo "all packages documented"

# Static analysis beyond vet, at a pinned release so local and CI
# findings always agree. Uses an installed staticcheck binary when one
# is on PATH, otherwise fetches the pinned version through `go run`
# (needs network once).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not in PATH; running pinned $(STATICCHECK_VERSION) via go run" >&2; \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	fi

ci: fmt vet build race alloc-budget daemon-smoke sybilbench-test bench bench-gate fuzz-smoke docs staticcheck
