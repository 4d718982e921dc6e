package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

const (
	warmups   = 2 // warm-up iterations per set-up
	setupReps = 3 // set-ups per run; setup_s is their median
	minIters  = 3 // floor of a --seconds run
)

// budget says how long the timed loop runs: a fixed iteration count (the
// full run, so sim-clock results repeat exactly) or a wall-clock allowance.
type budget struct {
	iters   int
	seconds float64
}

func (b budget) done(i int, start time.Time) bool {
	if b.seconds > 0 {
		return i >= minIters && time.Since(start).Seconds() >= b.seconds
	}
	return i >= b.iters
}

// calNominal is what one calibrate() takes on the build host when it is
// quiet. Host-clock seconds are reported at this reference speed.
const calNominal = 0.020

// calBuf is calibrate's working memory: two 16 MiB regions mapped outside
// the Go heap, so they do not count towards the collector's pacing of the
// system under test.
var calBuf = func() [2][]byte {
	var bufs [2][]byte
	for i := range bufs {
		b, err := syscall.Mmap(-1, 0, 16<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			b = make([]byte, 16<<20) // no anonymous mappings here: pay the heap cost instead
		}
		bufs[i] = b
	}
	return bufs
}()

// calibrate times a fixed loop of the two things the simulation spends the
// host on: moving blocks (four rounds of zeroing one 16 MiB region and
// copying it to the other) and handing control between process goroutines
// (20,000 round trips over unbuffered channels). On a shared host the speed
// of exactly this work drifts by tens of percent over minutes with the
// neighbours' memory traffic and the hypervisor's wake-up latency, and the
// workloads' wall time drifts with it (r ≈ 0.8–0.9 between block medians
// over five-minute windows on the build host). Timing the loop before every
// iteration gives each run its own reading of the host, which wall_s and
// setup_s are scaled by.
func calibrate() float64 {
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
		close(pong)
	}()
	t0 := time.Now()
	for i := 0; i < 4; i++ {
		clear(calBuf[0])
		calBuf[0][i] = byte(i + 1)
		copy(calBuf[1], calBuf[0])
	}
	for i := 0; i < 20000; i++ {
		ping <- struct{}{}
		<-pong
	}
	d := time.Since(t0).Seconds()
	close(ping)
	<-pong // the echo goroutine has exited
	return d
}

// timed is one timed iteration: host cost around the call, results inside.
type timed struct {
	cal            float64 // seconds the calibration loop took just before
	wall           float64 // seconds
	mallocs, bytes float64
	gcs            float64
	heapMB         float64
	out            iterOut
}

// timeIteration runs one iteration with the collector quiesced first, and
// finishes the iteration's untimed bookkeeping (sample extraction, the
// backup-off reference run) once the clock and the allocation counters have
// been read.
func timeIteration(w *workloadDef, sc scale, seed int64, tr *tracer) timed {
	var m0, m1 runtime.MemStats
	cal := calibrate()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	out := w.run(sc, seed, tr)
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	if out.finalize != nil {
		out.finalize(&out)
		out.finalize = nil
	}
	return timed{
		cal:     cal,
		wall:    wall,
		mallocs: float64(m1.Mallocs - m0.Mallocs),
		bytes:   float64(m1.TotalAlloc - m0.TotalAlloc),
		gcs:     float64(m1.NumGC - m0.NumGC),
		heapMB:  float64(m1.HeapAlloc) / 1e6,
		out:     out,
	}
}

// simKey fingerprints an iteration's simulated-clock results. Two runs of
// one seed must agree on it whatever the scheduler, and whether or not
// telemetry and the profiler were on.
func (o *iterOut) simKey() string {
	h := fnv.New64a()
	for _, set := range [][]time.Duration{o.commit, o.rpo} {
		for _, d := range set {
			var b [8]byte
			for i := range b {
				b[i] = byte(uint64(d) >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%d/%d lost=%d rec=%d drain=%d/%d ready=%d on=%d off=%d h=%x",
		len(o.commit), len(o.rpo), o.lost, o.recovery, o.drainBytes, o.drainTime, o.ready, o.commitOn, o.commitOff, h.Sum64())
}

// result is one workload's measured pass. It keeps a few numbers per
// iteration and a histogram, not the samples: what the benchmark itself
// holds live sets the collector's pace for the system under test, so it
// must stay small and flat from the first iteration to the last.
type result struct {
	setup []float64
	cal   []float64 // every calibration reading of the run, set-up included

	// One entry per timed iteration.
	wall, mallocs, bytes             []float64
	rpoP50, rpoMax                   []float64
	lost, recovery, ready            []float64
	keys                             []string // simKey of each iteration
	drainBytes, drainNS, onNS, offNS float64
	commit                           histogram // pooled commit latencies

	ops    int
	failed int
	errs   []string
}

func (r *result) note(o *iterOut) {
	r.ops += o.ops
	r.failed += o.failed
	for _, e := range o.errs {
		if len(r.errs) < 8 {
			r.errs = append(r.errs, e)
		}
	}
}

// add folds one timed iteration into the pass.
func (r *result) add(t *timed) {
	o := &t.out
	r.note(o)
	r.cal = append(r.cal, t.cal)
	r.wall = append(r.wall, t.wall)
	r.mallocs = append(r.mallocs, t.mallocs)
	r.bytes = append(r.bytes, t.bytes)
	r.keys = append(r.keys, o.simKey())
	if r.commit == nil {
		r.commit = histogram{}
	}
	for _, d := range o.commit {
		r.commit[d]++
	}
	rpo := make([]float64, len(o.rpo))
	for i, d := range o.rpo {
		rpo[i] = ms(d)
	}
	sort.Float64s(rpo)
	r.rpoP50 = append(r.rpoP50, percentile(rpo, 50))
	r.rpoMax = append(r.rpoMax, percentile(rpo, 100))
	r.lost = append(r.lost, float64(o.lost))
	r.recovery = append(r.recovery, ms(o.recovery))
	r.ready = append(r.ready, ms(o.ready))
	r.drainBytes += float64(o.drainBytes)
	r.drainNS += float64(o.drainTime)
	r.onNS += float64(o.commitOn)
	r.offNS += float64(o.commitOff)
}

// mismatch counts a sim-clock disagreement as one failed operation.
func (r *result) mismatch(what, a, b string) {
	r.ops++
	if a != b {
		r.failed++
		if len(r.errs) < 8 {
			r.errs = append(r.errs, fmt.Sprintf("sim-clock mismatch (%s): %s != %s", what, a, b))
		}
	}
}

// measure is the measured pass: telemetry nil, no profiler, no spans.
// Warm-up j and timed iteration i use seed+j and seed+i, so iteration 0 is
// always the base seed.
func measure(w *workloadDef, sc scale, seed int64, b budget) *result {
	r := &result{}
	var warm string
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		for j := 0; j < warmups; j++ {
			t := timeIteration(w, sc, seed+int64(j), nil)
			r.cal = append(r.cal, t.cal)
			if j == 0 {
				warm = t.out.simKey()
			}
			if rep == 0 {
				r.note(&t.out)
			}
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}
	if w.reference != nil {
		ref := timeIteration(&workloadDef{run: w.reference}, sc, seed, nil)
		r.note(&ref.out)
		r.mismatch(w.name+" vs its sequential reference", ref.out.simKey(), warm)
	}
	start := time.Now()
	for i := 0; !b.done(i, start); i++ {
		t := timeIteration(w, sc, seed+int64(i), nil)
		r.add(&t)
		if i == 0 {
			r.mismatch("same seed, second run", warm, r.keys[0])
		}
	}
	return r
}

// hostFactor scales this run's host-clock seconds to the reference speed:
// below 1 when the host was slower than the build host at its quietest.
func (r *result) hostFactor() float64 { return ratio(calNominal, median(r.cal)) }

// endToEnd reduces a measured pass to the end-to-end metrics by name.
// Pooled figures pool over the timed iterations; per-iteration figures
// (lag percentiles, losses, recovery) take the median or mean across them,
// which a run of any length estimates without bias.
func (r *result) endToEnd() map[string]metricOut {
	commitAt, total := r.commit.percentiles()
	commit := func(p float64) metricOut {
		out := metricOut{Value: commitAt(p), N: total, Q1: commitAt(25), Q3: commitAt(75)}
		if tp := supportedTail(total); tp > 0 {
			out.TailP, out.Tail = tp, commitAt(tp)
		}
		return out
	}
	n := len(r.wall)
	wall, setup := scaled(r.wall, r.hostFactor()), scaled(r.setup, r.hostFactor())
	m := map[string]metricOut{
		"wall_s":              sampled(median(wall), wall),
		"allocs_per_op":       sampled(mean(r.mallocs), r.mallocs),
		"alloc_mb_per_op":     sampled(mean(r.bytes)/1e6, scaled(r.bytes, 1e-6)),
		"setup_s":             sampled(median(setup), setup),
		"commit_p50_ms":       commit(50),
		"commit_p99_ms":       commit(99),
		"commit_slowdown_pct": {Value: (ratio(r.onNS, r.offNS) - 1) * 100, N: n},
		"rpo_p50_ms":          sampled(median(r.rpoP50), r.rpoP50),
		"rpo_max_ms":          sampled(median(r.rpoMax), r.rpoMax),
		"lost_ops":            sampled(mean(r.lost), r.lost),
		"recovery_ms":         sampled(mean(r.recovery), r.recovery),
		"drain_mbps":          {Value: ratio(r.drainBytes/1e6, r.drainNS/1e9), N: n},
		"ready_ms":            sampled(mean(r.ready), r.ready),
		"fail_share":          {Value: ratio(float64(r.failed), float64(r.ops)), N: r.ops},
	}
	for name, v := range m {
		v.Unit = endToEndByName[name].unit
		m[name] = v
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// metricOut is one reported figure with what it rests on.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	// TailP is the highest percentile with at least ten samples beyond it,
	// Tail its value (pooled latency samples only).
	TailP float64 `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

// sampled describes a per-iteration figure by its quartiles.
func sampled(v float64, xs []float64) metricOut {
	q1, q3 := quartiles(xs)
	return metricOut{Value: v, N: len(xs), Q1: q1, Q3: q3}
}

// traced is one workload's traced pass.
type traced struct {
	layers  map[string]float64
	spans   []span
	profile []byte
	export  []byte
	ops     int
	failed  int
	errs    []string
}

// tracedPass runs the workload again with telemetry on, a CPU profile
// running and the span log open, and reduces what it saw to the per-layer
// metrics. ref holds untraced iterations of the same seeds: their sim-clock
// results (refKeys) must match, and their wall time (refWall) is the
// overhead baseline.
func tracedPass(w *workloadDef, sc scale, seed int64, iters int, refWall []float64, refKeys []string) (*traced, error) {
	tp := &traced{}
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	r := &result{}
	var wallT []float64
	var gcs, heap float64
	var baseCounts map[string]float64 // the base seed's iteration supplies the per-layer counts
	var baseOps int
	for i := 0; i < iters; i++ {
		tr.iter = i
		root := tr.begin("iteration")
		t := timeIteration(w, sc, seed+int64(i), tr)
		tr.end(root)
		r.note(&t.out)
		wallT = append(wallT, t.wall)
		gcs += t.gcs
		heap = max(heap, t.heapMB)
		if i < len(refKeys) {
			r.mismatch(fmt.Sprintf("traced vs measured pass, iteration %d", i), refKeys[i], t.out.simKey())
		}
		if i == 0 {
			baseCounts, baseOps = t.out.counts, t.out.ops
		}
	}
	pprof.StopCPUProfile()
	tp.ops, tp.failed, tp.errs = r.ops, r.failed, r.errs

	layers := deriveCounts(baseCounts, float64(baseOps))
	layers["telemetry.overhead_pct"] = (ratio(median(wallT), median(refWall)) - 1) * 100
	layers["host.heap_peak_mb"] = heap
	layers["host.gc_cycles"] = gcs / float64(iters)
	for name, s := range tr.phaseSeconds(iters) {
		if key, ok := phaseMetric[name]; ok {
			layers[key] += s
		}
	}
	shares, err := foldProfile(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("fold cpu profile: %w", err)
	}
	for pkg, share := range shares {
		layers["host.cpu_share."+pkg] = share
	}
	tp.layers = layers
	tp.spans, tp.profile, tp.export = tr.spans, prof.Bytes(), tr.lastExport
	return tp, nil
}

// phaseMetric maps driver span names onto the phase.* host-time metrics.
var phaseMetric = map[string]string{
	"provision": "phase.provision_s",
	"load":      "phase.load_s",
	"drain":     "phase.drain_s",
	"failover":  "phase.failover_s",
	"verify":    "phase.verify_s",
}
