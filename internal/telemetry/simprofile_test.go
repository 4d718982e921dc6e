package telemetry

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
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

// rawSample is one sample as `go tool pprof -raw` prints it: its values, its
// leaf function (the first line of its first location) and its labels.
type rawSample struct {
	values []int64
	leaf   string
	labels map[string]string
}

var (
	rawValues   = regexp.MustCompile(`^((?: +\d+)+): ((?:\d+ )*)$`)                 // values: location ids
	rawLabel    = regexp.MustCompile(`(\w+):\[([^]]*)\]`)                           // key:[value]
	rawLocation = regexp.MustCompile(`(?m)^ +(\d+): 0x[0-9a-f]+ (?:M=\d+ )?(\S+) `) // id: address, first function
)

// readRaw decodes a profile with `go tool pprof -raw`, the Go toolchain's own
// reader, and returns its sample types as the line under "Samples:" prints
// them, and its samples.
func readRaw(t *testing.T, raw []byte) (types string, samples []rawSample) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sim.pprof")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("go", "tool", "pprof", "-raw", path).Output()
	if err != nil {
		t.Fatalf("go tool pprof -raw: %v", err)
	}
	head, locs, ok := strings.Cut(string(out), "\nLocations\n")
	if !ok {
		t.Fatalf("pprof -raw printed no locations:\n%s", out)
	}
	funcs := map[string]string{}
	for _, m := range rawLocation.FindAllStringSubmatch(locs, -1) {
		funcs[m[1]] = m[2]
	}
	_, body, _ := strings.Cut(head, "Samples:\n")
	types, body, _ = strings.Cut(body, "\n")
	for _, line := range strings.Split(body, "\n") {
		m := rawValues.FindStringSubmatch(line)
		if m == nil {
			if len(samples) > 0 {
				for _, l := range rawLabel.FindAllStringSubmatch(line, -1) {
					samples[len(samples)-1].labels[l[1]] = l[2]
				}
			}
			continue
		}
		s := rawSample{labels: map[string]string{}}
		for _, v := range strings.Fields(m[1]) {
			n, _ := strconv.ParseInt(v, 10, 64)
			s.values = append(s.values, n)
		}
		if ids := strings.Fields(m[2]); len(ids) > 0 {
			s.leaf = funcs[ids[0]]
		}
		samples = append(samples, s)
	}
	return types, samples
}

// The encoded profile reads back through `go tool pprof -raw` as the samples
// it was given: one sample type, sim_nanoseconds; a process label on every
// sample and a tenant label where the process has one; every sample's leaf
// the blocking Proc method; and per process, the values sum to its lifetime.
// Two runs of one seed encode the same bytes.
func TestWriteSimProfileRoundTrips(t *testing.T) {
	raw, lives := simProfileRun(t)
	if again, _ := simProfileRun(t); !bytes.Equal(raw, again) {
		t.Fatal("two runs of one seed encoded different profiles")
	}
	types, samples := readRaw(t, raw)
	if want := "sim_nanoseconds/nanoseconds"; types != want {
		t.Fatalf("sample types %q, want %q", types, want)
	}
	sums := map[string]time.Duration{}
	for _, s := range samples {
		if len(s.values) != 1 || s.leaf == "" {
			t.Fatalf("sample of %d values and leaf %q, want 1 and a function", len(s.values), s.leaf)
		}
		if !strings.HasPrefix(s.leaf, "repro/internal/sim.(*Proc).") {
			t.Errorf("sample leaf %q, want the blocking Proc method", s.leaf)
		}
		if want := strings.TrimPrefix(s.labels["process"], "tenant:"); s.labels["tenant"] != want {
			t.Errorf("labels %v: tenant %q, want %q", s.labels, s.labels["tenant"], want)
		}
		sums[s.labels["process"]] += time.Duration(s.values[0])
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
