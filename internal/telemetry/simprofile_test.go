package telemetry

import (
	"bytes"
	"compress/gzip"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// simProfileRun runs a small world with the sim-time profile on and returns
// the encoded profile and each process's lifetime.
func simProfileRun(t *testing.T) ([]byte, map[string]time.Duration) {
	env := sim.NewEnv(1)
	env.StartSimProfile(func(process string) string {
		ns, _ := strings.CutPrefix(process, "tenant:")
		return ns
	})
	lives := map[string]time.Duration{}
	ready := env.NewEvent()
	res := env.NewResource(1)
	for i, name := range []string{"tenant:a", "tenant:b", "tenant:c"} {
		env.ProcessAt(name, time.Duration(i)*time.Millisecond, func(p *sim.Proc) {
			start := p.Now()
			res.Acquire(p)
			p.Sleep(time.Duration(3+i) * time.Millisecond)
			res.Release()
			if i == 0 {
				ready.Trigger()
			}
			p.WaitTimeout(ready, time.Second)
			lives[name] = p.Now() - start
		})
	}
	env.Run(0)
	var buf bytes.Buffer
	if err := WriteSimProfile(&buf, env.SimProfile()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), lives
}

// The encoded profile decodes to the samples it was given: one sample type,
// sim_nanoseconds; a process label on every sample and a tenant label where
// the process has one; every location defined, its leaf the blocking Proc
// method; and per process, the values sum to its lifetime. Two runs of one
// seed encode the same bytes.
func TestWriteSimProfileRoundTrips(t *testing.T) {
	raw, lives := simProfileRun(t)
	if again, _ := simProfileRun(t); !bytes.Equal(raw, again) {
		t.Fatal("two runs of one seed encoded different profiles")
	}
	prof, err := ReadProfile(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if want := []SampleType{{"sim_nanoseconds", "nanoseconds"}}; !slices.Equal(prof.SampleTypes, want) {
		t.Fatalf("sample types %v, want %v", prof.SampleTypes, want)
	}
	sums := map[string]time.Duration{}
	for _, s := range prof.Samples {
		if len(s.Values) != 1 || len(s.Stack) == 0 {
			t.Fatalf("sample of %d values and %d frames, want 1 and some", len(s.Values), len(s.Stack))
		}
		if !strings.HasPrefix(s.Stack[0], "repro/internal/sim.(*Proc).") {
			t.Errorf("sample leaf %q, want the blocking Proc method", s.Stack[0])
		}
		if want := strings.TrimPrefix(s.Labels["process"], "tenant:"); s.Labels["tenant"] != want {
			t.Errorf("labels %v: tenant %q, want %q", s.Labels, s.Labels["tenant"], want)
		}
		sums[s.Labels["process"]] += time.Duration(s.Values[0])
	}
	if len(lives) != 3 {
		t.Fatalf("%d of 3 processes returned", len(lives))
	}
	for name, life := range lives {
		if sums[name] != life {
			t.Errorf("%s: samples sum to %v, lifetime %v", name, sums[name], life)
		}
	}
}

// ReadProfile reads the runtime's own profiles too: a heap profile decodes to
// its four sample types, every sample with a value of each.
func TestReadProfileReadsARuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	prof, err := ReadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []SampleType{{"alloc_objects", "count"}, {"alloc_space", "bytes"}, {"inuse_objects", "count"}, {"inuse_space", "bytes"}}
	if !slices.Equal(prof.SampleTypes, want) {
		t.Fatalf("sample types %v, want %v", prof.SampleTypes, want)
	}
	for _, s := range prof.Samples {
		if len(s.Values) != len(want) {
			t.Fatalf("a sample of %d values, want %d", len(s.Values), len(want))
		}
	}
}

// ReadProfile refuses what it cannot decode: bytes that are not gzip'd, a
// message cut short, and a sample that names a location the profile does not
// define.
func TestReadProfileRefusesMalformedInput(t *testing.T) {
	gz := func(b []byte) []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(b)
		zw.Close()
		return buf.Bytes()
	}
	var sample, undefined protoMsg
	sample.uint(1, 9) // location_id 9, unpacked
	undefined.bytes(2, sample)
	for name, raw := range map[string][]byte{
		"not gzip":           []byte("profile"),
		"truncated":          gz([]byte{2<<3 | 2, 10, 1}), // a sample of 10 bytes, 1 present
		"undefined location": gz(undefined),
	} {
		if _, err := ReadProfile(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: decoded without an error", name)
		}
	}
}
