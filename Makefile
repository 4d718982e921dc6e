# Build-gate entry points.
#
# Local:  `make ci` is the full gate contributors run before pushing —
#         format check, vet, build, full tests (plain and -race: the sim
#         kernel and the fabric dispatchers move work across goroutines),
#         and `bench-check`, the bench-regression gate: every experiment
#         harness (E1-E18) runs with -benchmem and FAILS the
#         build if any harness's ns/op regressed more than 25%, or its
#         allocs/op more than 5%, against the committed BENCH_baseline.json
#         (allocation counts are deterministic, so their gate is narrow;
#         B/op regressions warn; new benches are allowed and reported).
#         Harnesses run at -benchtime 3x, except the ones whose iteration
#         is about 10 ms or less (BENCH_SHORT: E1, E2, E4, E5, E7, E8, E9,
#         E14, E16), which run at 30x: since the coroutine kernel their
#         3-iteration mean is a few ms of wall time, one GC cycle or a
#         scheduler hiccup is a large part of it (E2/E9/E14 spread x1.9-2.2
#         over 8 runs at 3x, x1.25-1.5 at 30x on the 2-vCPU box), and
#         min-of-3 at 3x crossed the 25% gate in 2 of 6 runs of unchanged
#         code. A 30-iteration mean reads higher than the lowest of three
#         3-iteration means (the 3x baseline had E1 2.8 ms, E2 0.60, E8 4.3;
#         at 30x that build and its successor both read 3.5, 0.7-0.8, 5.3-5.6
#         in an alternating A/B), so those floors moved with the method, not
#         with the code. It costs ~5 s more per run; `baseline` runs the same
#         two commands, both fixed in this file, so the comparison stays
#         like-for-like. `make bench-smoke` is the
#         cheaper 1x-iteration harness check when you only want "does it
#         still run". `make telemetry-smoke` runs the E16 observability
#         experiment end-to-end and writes its telemetry export
#         (telemetry.json, Chrome trace-event JSON viewable in Perfetto);
#         CI archives it next to bench-report.json so a churn run's RPO
#         timelines and span trace can be inspected from the run page.
#         `make autopilot-smoke` runs the E17 SLO-autopilot experiment
#         end-to-end and writes its decision log (e17-decisions.log) —
#         the byte-exact audit trail of every reshard/derate/restore/
#         placement the control loop actuated; CI archives it too.
#         `make tables-check` diffs every experiment table (-quick -seed 1)
#         against testdata/experiments-quick-seed1.golden: a refactor that
#         claims "same simulation outcomes" proves it with an empty diff.
#         `make chaos-smoke` sweeps 25 seeded random fault schedules
#         against the invariant checkers under -race; failures print a
#         one-line repro and a shrunk minimal schedule, and the replay log
#         (chaos-repro.log) is archived. `make chaos` is the long sweep.
# CI:     .github/workflows/ci.yml runs exactly `make ci` on push/PR with
#         Go module caching, so the same gate holds outside laptops.
#         `make profile-<workload>` (profile-fleet_seq, profile-shop_adc, ...)
#         profiles that ./benchmark workload for 5 s and leaves cpu.pprof and
#         mem.pprof (CI archives fleet_seq's): `go tool pprof
#         -sample_index=alloc_objects -top mem.pprof` names the allocation
#         sites behind its allocs_per_op.
# Update: `make baseline` regenerates BENCH_baseline.json (ns/op, B/op,
#         allocs/op per harness) — rerun it, eyeball the diff, and commit
#         it whenever a PR intentionally moves the wall-cost or allocation
#         needle (a lower floor should be ratcheted in, or the gate keeps
#         defending the old one). The gate defends a floor, so record a
#         quiet one: on a shared host run it a few times and keep each
#         harness's lowest ns/op, and do not let a harness's ns/op rise above
#         the previous baseline's unless the PR means to slow it (show it
#         with an A/B of the two builds). When the host is loaded every
#         harness reads 25-35% high at once, unchanged code included: rerun,
#         or loosen that run with BENCH_THRESHOLD; allocs/op do not move.
#
# The committed baseline records absolute wall costs and is therefore
# machine-specific: the gate is meaningful on hardware comparable to
# where the baseline was recorded. On a slower runner class, either
# regenerate the baseline there or loosen the gate for that run with
# `make bench-check BENCH_THRESHOLD=0.5`.

GO ?= go
# Blocking ns/op regression threshold for bench-check (fraction over the
# committed baseline).
BENCH_THRESHOLD ?= 0.25
# The ms-scale harnesses (see the header) run at 30x; every other Benchmark in
# the root package, present or future, runs at 3x. A constant, not an option:
# baseline and bench-check have to measure the same thing.
BENCH_SHORT := E(1|2|4|5|7|8|9|14|16)_
# What bench-check and baseline both measure (min ns/op over -count 3), left in
# bench.out. -bench has no "all but", so the 3x pattern is every listed
# Benchmark that is not a short one; if the listing fails the run fails rather
# than measure nothing at 3x.
RUN_BENCHES = long="$$($(GO) test -list Benchmark . | grep '^Benchmark' | grep -Ev '$(BENCH_SHORT)' | paste -sd '|' -)"; \
	[ -n "$$long" ] || { echo "bench: no harness listed for the 3x run" >&2; exit 1; }; \
	$(GO) test -run '^$$' -bench "$$long" -benchtime 3x -benchmem -count 3 . && \
	$(GO) test -run '^$$' -bench '$(BENCH_SHORT)' -benchtime 30x -benchmem -count 3 .

.PHONY: ci fmt vet build test test-race tables-check bench-smoke bench-check baseline telemetry-smoke autopilot-smoke chaos-smoke chaos

ci: fmt vet build test test-race tables-check bench-check telemetry-smoke autopilot-smoke chaos-smoke

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# The simulation-outcome gate: every table of `cmd/experiments` at -quick
# -seed 1 must equal the committed golden byte for byte (stdout is
# deterministic per seed). A PR that means to move a table regenerates the
# golden with the same command and explains each changed line.
tables-check:
	@$(GO) run ./cmd/experiments -run all -quick -seed 1 | diff -u testdata/experiments-quick-seed1.golden - || \
		{ echo "tables-check: experiment tables differ from testdata/experiments-quick-seed1.golden"; exit 1; }

# One iteration of every experiment benchmark: catches harness regressions
# without paying for a statistically meaningful measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# The bench-regression gate: run the harnesses 3 times, then compare each
# harness's best (minimum ns/op) run against the committed baseline with
# cmd/benchcheck (fails >25% ns/op and >5% allocs/op regressions, warns on
# B/op regressions). Two steps so a bench failure isn't masked by the pipe.
# The comparison is also written to bench-report.json — CI archives it as a
# build artifact so regressions can be inspected without re-running.
bench-check:
	@( $(RUN_BENCHES) ) > bench.out || \
		{ cat bench.out; rm -f bench.out; exit 1; }
	@$(GO) run ./cmd/benchcheck -baseline BENCH_baseline.json -threshold $(BENCH_THRESHOLD) \
		-json bench-report.json < bench.out; \
		status=$$?; rm -f bench.out; exit $$status

# Profile one benchmark workload (make profile-fleet_seq, profile-shop_adc,
# ...) for 5 s of measured iterations. The heap profile is cumulative over
# the run, so alloc_objects / alloc_space attribute allocs_per_op and
# alloc_mb_per_op to call sites.
profile-%:
	$(GO) run ./benchmark --workload $* --seconds 5 -cpuprofile cpu.pprof -memprofile mem.pprof

# E16 smoke: run the observability experiment (churning fleet with the full
# telemetry plane on, probed RPO cross-validated against the fleet sampler)
# and write the telemetry export. Fails if the export or the cross-check
# fails; CI uploads telemetry.json as a build artifact.
telemetry-smoke:
	$(GO) run ./cmd/experiments -run e16 -quick -telemetry telemetry.json

# E17 smoke: run the SLO-autopilot experiment (diurnal load, closed loop
# from probed RPO to reshard/admission/placement) and write the decision
# log. The experiment's own acceptance shape — static violates, autopilot
# holds — is asserted inside the harness; CI uploads e17-decisions.log as a
# build artifact so the control loop's audit trail ships with every run.
autopilot-smoke:
	$(GO) run ./cmd/experiments -run e17 -decisions e17-decisions.log

# Chaos smoke: a fixed short sweep of seeded fault schedules against the
# global invariant checkers, under the race detector (the sweep fans seeds
# out across worker goroutines, each with its own kernel). Any failing seed
# prints a one-line repro (`go run ./cmd/chaos -steps short -seed N`), the
# shrunk minimal schedule, and writes the full deterministic replay log to
# chaos-repro.log — CI uploads it as a build artifact on failure.
chaos-smoke:
	$(GO) run -race ./cmd/chaos -steps short -seeds 25 -log chaos-repro.log

# The long sweep: not part of `make ci` — run it after changes to the
# replication engines, recovery paths, or the declarative surface.
chaos:
	$(GO) run ./cmd/chaos -steps medium -seeds 500 -log chaos-repro.log

# Record the bench numbers as JSON (one entry per harness, with -benchmem
# allocation columns; minimum ns/op over -count 3, matching what
# bench-check measures). cmd/benchcheck -update does the parsing and
# aggregation — the exact same code path bench-check compares with — so the
# recorded numbers are like-for-like by construction.
baseline:
	@( $(RUN_BENCHES) ) > bench.out || \
		{ cat bench.out; rm -f bench.out; exit 1; }
	@$(GO) run ./cmd/benchcheck -update -baseline BENCH_baseline.json < bench.out; \
		status=$$?; rm -f bench.out; exit $$status
	@cat BENCH_baseline.json
