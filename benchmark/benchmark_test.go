package main

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tinyScale keeps every workload's shape and shrinks its size so the whole
// file runs inside the tier-1 budget.
var tinyScale = scale{fleetTenants: 8, fleetOrders: 4, shopOrders: 60, drainWrites: 256, fleetRefOrders: 16, drainRefWrites: 16}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json differs from the tables in spec.go and workloads.go; regenerate it with `go run ./benchmark -spec > BENCHMARK.json`")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(want))
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, over the limit of 128", n)
	}
	if n := len(endToEnd); n > 16 {
		t.Errorf("%d end-to-end metrics, over the limit of 16", n)
	}
	seen := map[string]bool{}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
		seen[w.name] = true
	}
	var setup *metricDef
	for i, d := range endToEnd {
		if seen[d.name] {
			t.Errorf("name %s used twice", d.name)
		}
		seen[d.name] = true
		if d.bound > 0.25 {
			t.Errorf("%s: bound %g over 0.25", d.name, d.bound)
		}
		if d.name == "setup_s" {
			setup = &endToEnd[i]
		}
		for _, w := range strings.Fields(d.on) {
			if w != "all" && workloadByName(w) == nil {
				t.Errorf("%s: defined on unknown workload %s", d.name, w)
			}
		}
	}
	if setup == nil || setup.unit != "s" || setup.higher {
		t.Error("setup_s must be an end-to-end metric in s, lower is better")
	}
	for _, d := range perLayer {
		if seen[d.name] {
			t.Errorf("name %s used twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestWorkloadsEmitDeclaredNames runs both passes of every workload at tiny
// scale: each emits every end-to-end name, fails nothing, and together with
// the probes the workloads produce every declared per-layer name and no
// undeclared one.
func TestWorkloadsEmitDeclaredNames(t *testing.T) {
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.name] = true
	}
	produced := map[string]bool{"host.ledger_coverage": true}
	for name := range runProbes(time.Millisecond) {
		produced[name] = true
	}
	for i := range workloads {
		w := &workloads[i]
		r := measure(w, tinyScale, 1, budget{iters: 2})
		if r.failed != 0 || r.ops == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, r.failed, r.ops, r.errs)
		}
		e2e := r.endToEnd()
		for _, d := range reported {
			m, ok := e2e[d.name]
			if !ok {
				t.Errorf("%s: end-to-end metric %s not emitted", w.name, d.name)
			}
			// The generalised pairs need the full scale to be non-zero (a
			// tiny fleet is over before its lag is ever sampled).
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (m.Value == 0 && d.applies(w.name) && d.name != failShare.name) {
				t.Errorf("%s: %s = %v, want a finite non-zero value", w.name, d.name, m.Value)
			}
			if m.Unit != d.unit {
				t.Errorf("%s: %s has unit %q, want %q", w.name, d.name, m.Unit, d.unit)
			}
		}
		if len(e2e) != len(endToEnd)+1 {
			t.Errorf("%s: %d end-to-end metrics emitted, %d declared", w.name, len(e2e), len(endToEnd)+1)
		}
		tp, err := tracedPass(w, tinyScale, 1, 1, r.wall[:1], r.keys[:1])
		if err != nil {
			t.Fatalf("%s: traced pass: %v", w.name, err)
		}
		if tp.failed != 0 {
			t.Errorf("%s: traced pass failed %d operations: %v", w.name, tp.failed, tp.errs)
		}
		if len(tp.spans) == 0 || len(tp.export) == 0 || len(tp.profile) == 0 {
			t.Errorf("%s: traced pass left %d spans, %d export bytes, %d profile bytes", w.name, len(tp.spans), len(tp.export), len(tp.profile))
		}
		for name := range tp.layers {
			if !declared[name] {
				t.Errorf("%s: undeclared per-layer metric %s", w.name, name)
			}
			produced[name] = true
		}
	}
	for name := range declared {
		// A run this short may never be sampled in a given package.
		if !produced[name] && !strings.HasPrefix(name, "host.cpu_share.") {
			t.Errorf("declared per-layer metric %s is produced by no workload or probe", name)
		}
	}
}

// TestSimClockIsDeterministic: the same seed twice gives identical
// sim-clock results and counts, another seed gives different ones.
func TestSimClockIsDeterministic(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a := timeIteration(w, tinyScale, 7, nil).out
		b := timeIteration(w, tinyScale, 7, nil).out
		c := timeIteration(w, tinyScale, 8, nil).out
		if a.simKey() != b.simKey() {
			t.Errorf("%s: seed 7 twice: %s != %s", w.name, a.simKey(), b.simKey())
		}
		if !reflect.DeepEqual(a.counts, b.counts) {
			t.Errorf("%s: seed 7 twice: counts differ:\n%v\n%v", w.name, a.counts, b.counts)
		}
		if a.simKey() == c.simKey() && reflect.DeepEqual(a.counts, c.counts) {
			t.Errorf("%s: seeds 7 and 8 gave identical results: the seed does not reach the inputs", w.name)
		}
	}
}

func TestQuantiles(t *testing.T) {
	// The values Python's statistics.quantiles(data, n=4) gives.
	data := []float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5}
	q1, q3 := quartiles(data)
	if q1 != 2.75 || q3 != 8.25 || median(data) != 5.5 {
		t.Errorf("quartiles %v %v median %v, want 2.75 8.25 5.5", q1, q3, median(data))
	}
	if q1, q3 := quartiles([]float64{3}); q1 != 3 || q3 != 3 || median(nil) != 0 {
		t.Errorf("degenerate inputs: %v %v %v", q1, q3, median(nil))
	}
	s := sorted([]float64{5, 1, 4, 2, 3})
	if percentile(s, 50) != 3 || percentile(s, 99) != 5 || percentile(s, 20) != 1 {
		t.Errorf("nearest-rank percentiles of %v wrong", s)
	}
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10001, 99.9}, {100001, 99.99}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	wall := endToEndByName["wall_s"] // lower is better, host clock
	wall.bound = 0.10
	mbps := endToEndByName["drain_mbps"] // higher is better, sim clock
	mbps.bound = 0.005
	steady := func(v float64) metricOut { return metricOut{Value: v, N: 100, Q1: v * 0.99, Q3: v * 1.01} }
	noisy := func(v float64) metricOut { return metricOut{Value: v, N: 4, Q1: v * 0.8, Q3: v * 1.2} }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b metricOut
		want verdict
	}{
		{"inside the bound", wall, steady(1), steady(1.09), verdictOK},
		{"beyond the bound", wall, steady(1), steady(1.11), verdictWorse},
		{"better is never worse", wall, steady(1), steady(0.5), verdictOK},
		{"spread wider than the bound", wall, noisy(1), noisy(1.05), verdictUnresolved},
		{"worse beats unresolved", wall, noisy(1), noisy(1.5), verdictWorse},
		{"higher is better: drop beyond the bound", mbps, steady(100), steady(99), verdictWorse},
		{"higher is better: rise", mbps, steady(100), steady(120), verdictOK},
		{"sim clock has no noise", mbps, noisy(100), noisy(99.8), verdictOK},
		{"zero-bound failure share", failShare, metricOut{Value: 0}, metricOut{Value: 0.001}, verdictWorse},
		{"zero-bound failure share holds", failShare, metricOut{Value: 0}, metricOut{Value: 0}, verdictOK},
	} {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	mk := func(wall float64) *report {
		return &report{Seed: 1, Workloads: map[string]*workloadReport{"shop_adc": {EndToEnd: map[string]metricOut{
			"wall_s":     {Value: wall, N: 100, Q1: wall, Q3: wall},
			"rpo_p50_ms": {Value: 2.84, N: 1000},
		}}}}
	}
	var out bytes.Buffer
	if compare(&out, mk(1), mk(1.05)) {
		t.Errorf("5%% slower wall_s judged worse:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "rpo_p50_ms") || strings.Contains(out.String(), "drain_mbps") {
		t.Errorf("rows should be exactly the pairs both reports hold:\n%s", out.String())
	}
	if !compare(&out, mk(1), mk(1.5)) {
		t.Error("50% slower wall_s not judged worse")
	}
}

func TestChargeTo(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.chansend", "repro/internal/sim.(*Proc).block", "repro/internal/db.(*Txn).Commit", "main.runShop"}, "sim"},
		{[]string{"runtime.mallocgc", "repro/internal/storage.(*Volume).commit", "repro/internal/sim.(*Env).startProc.func1"}, "storage"},
		{[]string{"sort.Float64s", "main.(*result).endToEnd", "main.main"}, "benchmark"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime_other"},
	} {
		if got := chargeTo(c.stack); got != c.want {
			t.Errorf("chargeTo(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
