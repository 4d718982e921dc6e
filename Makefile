# Build-gate entry points. `make ci` is the whole gate, locally and in
# .github/workflows/ci.yml; each target's comment says what it checks and why
# its settings are what they are.
#
#   ci               everything below except layer-bench-record, bench-record, profile-% and allocs-%
#   fmt vet build test test-race
#   layer-bench-check  every benchmark under internal/ vs BENCH_layers.json (exact columns); each one still runs
#   layer-bench-record re-record BENCH_layers.json
#   tables-check     every experiment table and five chaos replays (with their per-process sim-time sums) equal the committed goldens
#   tables-record    rewrite those goldens (not part of ci)
#   bench-check      ./benchmark at seed 1 vs BENCH_results.json (the perf gate)
#   bench-record     re-record BENCH_results.json
#   profile-<w>      <w>.cpu.pprof + <w>.mem.pprof of one ./benchmark workload, and the CPU top without calibration
#   allocs-<w>       exact allocation sites of one ./benchmark workload (not part of ci)
#   telemetry-smoke  E16 end to end twice, the two exports byte-identical; leaves telemetry.json
#   autopilot-smoke  E17 end to end, its decision log equal to the committed golden; leaves e17-decisions.log
#   chaos-smoke      25 seeded fault schedules under -race
#   chaos            500 seeded fault schedules at -steps medium, without -race
#   lines            the Go line counts and DESIGN.md's size ROADMAP tracks, per internal/ package, cmd/ binary and example too (not part of ci)
#   lines-diff       BASE=<rev>: non-test Go lines outside benchmark/ at BASE, in the working tree, and the difference, then per changed internal/ and cmd/ directory (not part of ci)
#   sim-diff         BASE=<rev>: experiment tables, the CHAOS_SEEDS chaos replays and their per-process sim-time sums at BASE and in the working tree, byte for byte (not part of ci)
#   pairs            BASE=<rev> [W=shop_adc] [N=10] [SEED=1]: N alternating runs of W's benchmark at BASE and in the working tree, judged by layerbench -pairs: a sign-test verdict per host metric (not part of ci)
#   pairs-smoke      pairs at BASE=HEAD, W=drain_single, N=2: it runs, sim values agree, every verdict unresolved
#   layer-pairs      BASE=<rev> PKG=<dir> [BENCH=<regex>] [N=10]: the pairs recipe on PKG's go test benchmarks, the same judge: a verdict per benchmark on ns/op, B/op and allocs/op (not part of ci)
#   layer-pairs-smoke  layer-pairs at BASE=HEAD, one internal/db benchmark, N=2: it runs, custom metrics agree, every verdict unresolved

GO ?= go

.PHONY: ci fmt vet build test layer-bench-check layer-bench-record test-race tables-check tables-record bench-check bench-record telemetry-smoke autopilot-smoke chaos-smoke chaos lines lines-diff sim-diff pairs pairs-smoke layer-pairs layer-pairs-smoke

ci: fmt vet build test layer-bench-check test-race tables-check bench-check telemetry-smoke autopilot-smoke chaos-smoke chaos pairs-smoke layer-pairs-smoke

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The layer benchmarks beside their packages (BenchmarkRecover,
# BenchmarkTxnCommit, BenchmarkDrainOneLane, ...: the ledger DESIGN.md cites)
# are skipped by `go test ./...`. LAYER_BENCH is one go test command line with
# every knob a flag: each benchmark under internal/ five times at 100 ms
# (80-100 s on 2 vCPUs, most of it internal/db's set-ups). The record writes
# BENCH_layers.json through cmd/layerbench: per benchmark, the median
# allocs/op, B/op and custom sim metrics, the ns/op median and quartiles, the
# host and the revision (git describe --dirty). The check, part of ci, runs
# every benchmark, so it also fails when one panics or calls b.Fatal; it fails
# when the median allocs/op or a sim metric differs from the ledger, when the
# median B/op moves more than 1%, or when a benchmark is added or gone without
# a re-record. ns/op is printed, never judged. Both leave the raw output
# in layer-bench.txt. A change that means to move an exact column re-records
# and says why in CHANGES.md.
LAYER_BENCH = $(GO) test -run '^$$' -bench . -benchmem -count 5 -benchtime 100ms ./internal/...

layer-bench-record:
	$(LAYER_BENCH) > layer-bench.txt
	$(GO) run ./cmd/layerbench -record BENCH_layers.json -commit "$$(git describe --always --dirty 2>/dev/null || echo unknown)" < layer-bench.txt

layer-bench-check:
	$(LAYER_BENCH) > layer-bench.txt
	$(GO) run ./cmd/layerbench -check BENCH_layers.json < layer-bench.txt

test-race:
	$(GO) test -race ./...

# The seeds whose `chaos -steps medium` replays tables-check and sim-diff
# hold: the ten chaos goldens fix them, so a command line cannot set them.
override CHAOS_SEEDS := 1 7 42 99 123

# $(call sim-sums,F) prints the simulated time of the -simprofile file F per
# process label, one "process nanoseconds" line each, sorted: `go tool pprof
# -raw` lists each sample's value and labels, and awk adds the values up
# (printed with %.0f, since mawk's %d stops at 2^31). A profile's own bytes
# differ between any two builds (PCs, source paths); its sums do not.
override sim-sums = $(GO) tool pprof -raw "$(1)" 2>/dev/null | awk '/^Locations/{exit} /^ +[0-9]+: /{v=$$1+0; next} v!="" && match($$0,/process:\[[^]]*\]/){s[substr($$0,RSTART+9,RLENGTH-10)]+=v; v=""} END{for(p in s) printf "%s %.0f\n", p, s[p]}' | LC_ALL=C sort

# The simulation-outcome gate: every table of `cmd/experiments` at -quick
# -seed 1 must equal testdata/experiments-quick-seed1.golden byte for byte
# (stdout is deterministic per seed), and so must the `cmd/chaos -steps
# medium` replay of each of CHAOS_SEEDS and its per-process sim-time sums
# (testdata/chaos-medium-seed<N>.golden and .sums.golden, about 0.2 s for
# all five). A PR that means to move a value runs `make tables-record` and
# explains each changed line. It runs at GOMAXPROCS=1 and at the host
# default: an output that depends on the host's processor count fails one
# of the two.
tables-check:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/" ./cmd/experiments ./cmd/chaos || exit 1; \
	for procs in 1 default; do \
		if [ $$procs = default ]; then run=""; else run="env GOMAXPROCS=$$procs"; fi; \
		$$run "$$tmp/experiments" -run all -quick -seed 1 | diff -u testdata/experiments-quick-seed1.golden - || \
			{ echo "tables-check: at GOMAXPROCS=$$procs, experiment tables differ from testdata/experiments-quick-seed1.golden"; exit 1; }; \
		for seed in $(CHAOS_SEEDS); do \
			golden=testdata/chaos-medium-seed$$seed; \
			$$run "$$tmp/chaos" -steps medium -seed $$seed -simprofile "$$tmp/chaos.pprof" | diff -u $$golden.golden - || \
				{ echo "tables-check: at GOMAXPROCS=$$procs, chaos seed $$seed differs from $$golden.golden"; exit 1; }; \
			$(call sim-sums,$$tmp/chaos.pprof) | diff -u $$golden.sums.golden - || \
				{ echo "tables-check: at GOMAXPROCS=$$procs, chaos seed $$seed's sim-time sums differ from $$golden.sums.golden"; exit 1; }; \
		done; \
	done

# Rewrite tables-check's goldens from the working tree.
tables-record:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/" ./cmd/experiments ./cmd/chaos || exit 1; \
	"$$tmp/experiments" -run all -quick -seed 1 > testdata/experiments-quick-seed1.golden || exit 1; \
	for seed in $(CHAOS_SEEDS); do \
		golden=testdata/chaos-medium-seed$$seed; \
		"$$tmp/chaos" -steps medium -seed $$seed -simprofile "$$tmp/chaos.pprof" > $$golden.golden; \
		$(call sim-sums,$$tmp/chaos.pprof) > $$golden.sums.golden; \
		test -s $$golden.sums.golden || { echo "tables-record: no per-process sums from chaos seed $$seed"; exit 1; }; \
	done

# The performance gate: one full run of ./benchmark (five workloads, both
# clocks, ~100 s on 2 vCPUs) compared with the committed BENCH_results.json
# by -compare. Seed 1 on both sides, so a sim-clock row that moved at all
# fails (a PR that means to move one re-records); host-clock rows fail when
# `worse` than their declared bound (allocs_per_op 1%, alloc_mb_per_op 2%,
# wall_s 25% after host-factor scaling). setup_s is printed, not gated: a
# median of three set-ups, it moved -11..+42% over 17 runs of unchanged code
# (past its 25% bound once) while wall_s stayed inside -8..+12%. Run it on
# an idle box: DESIGN.md "CI gate" says what a starved host looks like. CI
# archives bench-report.json and the table (bench-compare.txt).
bench-check:
	$(GO) run ./benchmark -seed 1 -out bench-report.json
	@$(GO) run ./benchmark -compare BENCH_results.json bench-report.json > bench-compare.txt; status=$$?; cat bench-compare.txt; \
	grep -Eq ' worse$$|value changed' bench-compare.txt || exit $$status; \
	! grep -E ' worse$$|value changed' bench-compare.txt | grep -qv ' setup_s '

# Re-record the baseline when a PR means to move a metric (say which and why
# in CHANGES.md). The report stamps host, Go version and commit; the root
# package's test refuses one that is partial or not from seed 1.
bench-record:
	$(GO) run ./benchmark -seed 1 -out BENCH_results.json

# Profile one benchmark workload (make profile-fleet_seq, profile-shop_adc,
# ...) for 5 s of measured iterations into <w>.cpu.pprof and <w>.mem.pprof,
# so profiles of two workloads sit side by side (CI keeps fleet_seq's,
# shop_adc's and drain_single's). The heap profile is cumulative over
# the whole process, so it also counts set-up and, on shop_adc, the untimed
# backup-off reference runs (shopReference: ~37% of alloc_space, ~43% of
# alloc_objects). Before quoting a share of shop_adc's allocs_per_op or
# alloc_mb_per_op, pass -ignore=shopReference: it keeps every process of the
# timed run (engines, journal, controllers) and drops only the reference,
# where -focus=runShop keeps only the driver closure. A simulated process is
# a coroutine whose stack reaches back only to its own body, so on the other
# workloads -focus on the frame that runs the timed simulation, drainPhase or
# 'Fleet..Run'; -focus runDrain or runFleet matches a few percent. The CPU
# profile's top is also written to <w>.cpu.top.txt without main.calibrate,
# the host-speed loop the benchmark times before every iteration (about 40% of
# the samples), so its rows are the workload's own (shares still of the whole).
profile-%:
	$(GO) run ./benchmark --workload $* --seconds 5 -cpuprofile $*.cpu.pprof -memprofile $*.mem.pprof
	$(GO) tool pprof -top -ignore 'main\.calibrate' $*.cpu.pprof > $*.cpu.top.txt

# Exact allocation sites of one benchmark workload (make allocs-fleet_seq):
# every allocation is recorded (GODEBUG=memprofilerate=1) into
# <w>.allocs.pprof, the top sites by object count are printed, and then the
# iteration divisor: the profile's total objects over the printed
# allocs_per_op. A site's objects over the divisor are its objects per timed
# iteration (the profile also holds the untimed set-up runs); on a fleet,
# divide again by its tenants. The run's own report is left in <w>.allocs.txt.
allocs-%:
	GODEBUG=memprofilerate=1 $(GO) run ./benchmark --workload $* --seed 1 --seconds 2 --trace 0 -memprofile $*.allocs.pprof > $*.allocs.txt
	@top="$$($(GO) tool pprof -sample_index=alloc_objects -top $*.allocs.pprof)" || exit 1; echo "$$top"; \
	total=$$(echo "$$top" | sed -n 's/.* of \([0-9]*\) total.*/\1/p'); \
	per=$$(awk '$$1 == "allocs_per_op" {print $$2; exit}' $*.allocs.txt); \
	awk -v t="$$total" -v p="$$per" 'BEGIN {printf "iteration divisor: %d objects / %.1f allocs_per_op = %.2f\n", t, p, t / p}'

# E16 smoke: run the observability experiment (churning fleet with the full
# telemetry plane on, worst-RPO ranking read from the probed series) and
# write the telemetry export, then run it again and compare the two exports
# byte for byte: the table's note says the export is byte-deterministic.
# Fails if the export fails or differs, the churn is incomplete, spans
# overlap or no non-zero RPO is ranked; CI uploads telemetry.json as a build
# artifact.
telemetry-smoke:
	$(GO) run ./cmd/experiments -run e16 -quick -telemetry telemetry.json
	$(GO) run ./cmd/experiments -run e16 -quick -telemetry telemetry-rerun.json
	cmp telemetry.json telemetry-rerun.json
	rm telemetry-rerun.json

# E17 smoke: run the SLO-autopilot experiment (diurnal load, closed loop
# from probed RPO to reshard/admission/placement) and write the decision
# log, which must equal testdata/e17-decisions-seed1.golden. The
# experiment's own acceptance shape — static violates, autopilot holds — is
# asserted inside the harness; CI uploads e17-decisions.log as a build
# artifact so the control loop's audit trail ships with every run. A change
# that means to move a decision regenerates the golden with
#   go run ./cmd/experiments -run e17 -decisions testdata/e17-decisions-seed1.golden
autopilot-smoke:
	$(GO) run ./cmd/experiments -run e17 -decisions e17-decisions.log
	diff testdata/e17-decisions-seed1.golden e17-decisions.log

# Chaos smoke: a fixed short sweep of seeded fault schedules against the
# global invariant checkers, under the race detector (the sweep fans seeds
# out across worker goroutines, each with its own kernel). Any failing seed
# prints a one-line repro (`go run ./cmd/chaos -steps short -seed N`), the
# shrunk minimal schedule, and writes the full deterministic replay log to
# chaos-repro.log — CI uploads it as a build artifact on failure.
chaos-smoke:
	$(GO) run -race ./cmd/chaos -steps short -seeds 25 -log chaos-repro.log

# The long sweep, part of `make ci` (about 4 s on 2 vCPUs): 500 medium
# schedules, failover, failback at every lane count and reshards among them.
# A failing seed is reported, shrunk and logged as in chaos-smoke.
chaos:
	$(GO) run ./cmd/chaos -steps medium -seeds 500 -log chaos-repro.log

# The files `lines` counts first: non-test Go outside benchmark/.
PRODUCT_GO = find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*'

# The sizes ROADMAP's aim 2 is judged by: non-test Go outside benchmark/ (the
# product; benchmark/ is frozen for perf and simplicity PRs), all Go, and
# DESIGN.md's byte count; then the non-test Go lines of each internal/
# package, each cmd/ binary and each example, so a PR can state what it took
# out of the one it touched.
lines:
	@printf 'non-test Go lines outside benchmark/: %d\n' "$$($(PRODUCT_GO) | xargs cat | wc -l)"
	@printf 'total Go lines: %d\n' "$$(find . -name '*.go' | xargs cat | wc -l)"
	@printf 'DESIGN.md bytes: %d\n' "$$(wc -c < DESIGN.md)"
	@for d in internal/*/ cmd/*/ examples/*/; do \
		printf '%s non-test Go lines: %d\n' "$${d%/}" "$$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"; done

# The ≥150-line rule of a simplicity PR, checked against its parent
# (make lines-diff BASE=HEAD~1): BASE is extracted with git archive into a
# temporary directory and counted with `lines`' own find, as is the
# working tree (untracked files included, as in `lines`). Then each
# internal/ package and cmd/ binary whose non-test Go lines changed is
# printed with its two counts and the difference.
lines-diff:
	@test -n "$(BASE)" || { echo "usage: make lines-diff BASE=<rev>"; exit 2; }
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	git archive "$(BASE)" | tar -x -C "$$tmp" || exit 1; \
	base=$$(cd "$$tmp" && $(PRODUCT_GO) | xargs cat | wc -l); \
	head=$$($(PRODUCT_GO) | xargs cat | wc -l); \
	printf 'non-test Go lines outside benchmark/: %s %d, working tree %d, difference %+d\n' "$(BASE)" $$base $$head $$((head - base)); \
	count() { find "$$1" -name '*.go' ! -name '*_test.go' 2>/dev/null | xargs -r cat | wc -l; }; \
	for d in $$( (cd "$$tmp" && ls -d internal/*/ cmd/*/; cd "$(CURDIR)" && ls -d internal/*/ cmd/*/) | sort -u); do \
		b=$$(count "$$tmp/$$d"); h=$$(count "$$d"); \
		[ "$$b" -eq "$$h" ] || printf '  %s: %d -> %d, difference %+d\n' "$${d%/}" $$b $$h $$((h - b)); \
	done

# The one-command proof that a change moves no simulated value: BASE is
# extracted as lines-diff does, cmd/experiments and cmd/chaos are built
# there and in the working tree, and each side runs `experiments -run all
# -quick -seed 1` and the `chaos -steps medium` replay of each of
# CHAOS_SEEDS with -simprofile, whose sim-sums go to chaos-<seed>.sums.out,
# so a moved sum names the process whose simulated time moved. Every output
# must be byte-identical to BASE's and every sums file non-empty; the first
# that is not is printed as a diff and fails the target. tables-check holds
# the same outputs to the working tree's goldens, which a change may
# regenerate; sim-diff holds them to BASE's run.
sim-diff:
	@test -n "$(BASE)" || { echo "usage: make sim-diff BASE=<rev>"; exit 2; }
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/src" "$$tmp/base" "$$tmp/head" || exit 1; \
	git archive "$(BASE)" | tar -x -C "$$tmp/src" || exit 1; \
	(cd "$$tmp/src" && $(GO) build -o "$$tmp/base/" ./cmd/experiments ./cmd/chaos) || exit 1; \
	$(GO) build -o "$$tmp/head/" ./cmd/experiments ./cmd/chaos || exit 1; \
	for side in base head; do \
		"$$tmp/$$side/experiments" -run all -quick -seed 1 > "$$tmp/$$side/experiments.out" || exit 1; \
		for seed in $(CHAOS_SEEDS); do \
			"$$tmp/$$side/chaos" -steps medium -seed $$seed -simprofile "$$tmp/$$side/chaos-$$seed.pprof" > "$$tmp/$$side/chaos-$$seed.out"; \
			$(call sim-sums,$$tmp/$$side/chaos-$$seed.pprof) > "$$tmp/$$side/chaos-$$seed.sums.out"; \
			test -s "$$tmp/$$side/chaos-$$seed.sums.out" || { echo "sim-diff: no per-process sums from chaos seed $$seed ($$side)"; exit 1; }; \
		done; \
	done; \
	for out in "$$tmp"/head/*.out; do \
		f=$${out##*/}; \
		diff -u "$$tmp/base/$$f" "$$out" || { echo "sim-diff: $$f differs from $(BASE)"; exit 1; }; \
		printf 'sim-diff: %s identical (%d lines)\n' "$$f" "$$(wc -l < "$$out")"; \
	done

# A wall-time claim (pairs) or an ns/op claim on a layer benchmark
# (layer-pairs) as one command, through one recipe: BASE is extracted as
# sim-diff does, and PAIR_PKG is built there and in the working tree (pairs:
# ./benchmark with go build; layer-pairs: PKG's test binary, PKG a directory
# such as ./internal/db, with go test -c). N pairs of runs follow, each binary
# run from its own package directory with PAIR_ARGS, base first in even pairs
# and head first in odd ones, so a drift of the host falls on both sides.
# pairs runs `-workload W -seed SEED -trace 0` at the workload's fixed
# iteration count; layer-pairs runs `-test.bench BENCH -test.benchmem
# -test.count 1` at go test's default benchtime (a package's whole set takes
# about 15 s a run: narrow BENCH). Every output line goes to PAIR_OUT
# prefixed `base ` or `head `, and `cmd/layerbench -pairs` reads it: per
# benchmark row, each host-clock column (wall_s, setup_s, allocs_per_op,
# alloc_mb_per_op; ns/op, B/op, allocs/op) gets both medians and quartiles,
# the change, the pairs head won and the verdict of the sign-test rule —
# "better" or "worse" only with 10 or more pairs, one side winning nine
# tenths of them and the medians apart by more than base's q1–q3, else
# "unresolved". It fails when any other column (a simulation metric,
# attempted, failed) differs between two runs, a benchmark run was not
# correct, or the sides ran different benchmarks.
W ?= shop_adc
N ?= 10
SEED ?= 1
PKG ?= ./internal/db
BENCH ?= .

pairs: PAIR_PKG = ./benchmark
pairs: PAIR_BUILD = build
pairs: PAIR_ARGS = -workload $(W) -seed $(SEED) -trace 0
pairs: PAIR_OUT = pairs-$(W).txt
layer-pairs: PAIR_PKG = $(PKG)
layer-pairs: PAIR_BUILD = test -c
layer-pairs: PAIR_ARGS = -test.run '^$$' -test.bench '$(BENCH)' -test.benchmem -test.count 1 -test.timeout 10m
layer-pairs: PAIR_OUT = layer-pairs.txt

pairs layer-pairs:
	@test -n "$(BASE)" || { echo "usage: make pairs BASE=<rev> [W=<workload>] [N=<pairs>] [SEED=<seed>], or make layer-pairs BASE=<rev> PKG=<dir> [BENCH=<regex>] [N=<pairs>]"; exit 2; }
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/src" || exit 1; \
	git archive "$(BASE)" | tar -x -C "$$tmp/src" || exit 1; \
	(cd "$$tmp/src" && $(GO) $(PAIR_BUILD) -o "$$tmp/base.bin" $(PAIR_PKG)) || exit 1; \
	$(GO) $(PAIR_BUILD) -o "$$tmp/head.bin" $(PAIR_PKG) || exit 1; \
	$(GO) build -o "$$tmp/" ./cmd/layerbench || exit 1; \
	: > $(PAIR_OUT); i=0; \
	while [ $$i -lt $(N) ]; do \
		if [ $$((i % 2)) -eq 0 ]; then order="base head"; else order="head base"; fi; \
		for side in $$order; do \
			if [ $$side = base ]; then dir="$$tmp/src/$(PAIR_PKG)"; else dir="$(PAIR_PKG)"; fi; \
			(cd "$$dir" && "$$tmp/$$side.bin" $(PAIR_ARGS)) > "$$tmp/run.txt" || \
				{ cat "$$tmp/run.txt"; echo "$@: $$side run $$((i + 1)) failed"; exit 1; }; \
			sed "s/^/$$side /" "$$tmp/run.txt" >> $(PAIR_OUT); \
		done; \
		i=$$((i + 1)); \
	done; \
	echo "$@: $(PAIR_PKG) $(PAIR_ARGS), at $(BASE) (base) and the working tree (head)"; \
	"$$tmp/layerbench" -pairs < $(PAIR_OUT)

# The pairs target end to end on the cheapest workload: two pairs of HEAD
# against the working tree. It must exit 0 (every simulation metric, attempted
# and failed agree), and two pairs are too few for any verdict, so every host
# metric reads "unresolved"; the grep fails it if one does not.
pairs-smoke:
	@$(MAKE) --no-print-directory pairs BASE=HEAD W=drain_single N=2 > pairs-smoke.txt; status=$$?; cat pairs-smoke.txt; exit $$status
	@! grep -Eq ' (better|worse)$$' pairs-smoke.txt || { echo "pairs-smoke: a verdict from two pairs"; exit 1; }

# layer-pairs end to end on one cheap benchmark: two pairs of HEAD against the
# working tree. It must exit 0 (the custom metrics agree), and two pairs are
# too few for any verdict, so the grep fails it if one reads better or worse.
layer-pairs-smoke:
	@$(MAKE) --no-print-directory layer-pairs BASE=HEAD PKG=./internal/db BENCH='^BenchmarkTxnCommit$$' N=2 > layer-pairs-smoke.txt; status=$$?; cat layer-pairs-smoke.txt; exit $$status
	@! grep -Eq ' (better|worse)$$' layer-pairs-smoke.txt || { echo "layer-pairs-smoke: a verdict from two pairs"; exit 1; }
