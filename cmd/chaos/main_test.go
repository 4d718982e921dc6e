package main

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
)

// logTime reads the simulated time of the first line of a repro log that
// matches re, whose first group is the time as a Go duration.
func logTime(t *testing.T, log string, re string) time.Duration {
	t.Helper()
	m := regexp.MustCompile(re).FindStringSubmatch(log)
	if m == nil {
		t.Fatalf("repro log has no line matching %q:\n%s", re, log)
	}
	d, err := time.ParseDuration(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// A sample as `go tool pprof -raw` prints it: its one value and location ids,
// then its labels on the next line, each as key:[value].
var (
	rawSample = regexp.MustCompile(`(?m)^ +(\d+): [\d ]+\n +(.+)$`)
	rawLabel  = regexp.MustCompile(`(\w+):\[([^]]*)\]`)
)

// -seed N -simprofile FILE writes the replayed seed's simulated-time profile:
// it reads back through `go tool pprof -raw`, and two runs of the seed write
// the same bytes. Its samples sum per process to the process's lifetime where
// the run's log fixes it: the driver runs from 0 to its "done" line, and each
// workload process — one per name, labelled with its tenant — within the run.
// TestProcessNameSumsStayWithinTheRun holds every other name's sum
// within the run; TestSimProfileSumsToEachLifetime pins the kernel's
// per-process exactness.
func TestSimProfileFlagWritesTheSeedsProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "chaos")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(name string) ([]byte, string) {
		t.Helper()
		path := filepath.Join(dir, name)
		out, err := exec.Command(bin, "-steps", "medium", "-seed", "1", "-simprofile", path).Output()
		if err != nil {
			t.Fatalf("chaos -seed 1 -simprofile: %v\n%s", err, out)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw, string(out)
	}
	raw, log := run("a.pprof")
	if again, _ := run("b.pprof"); !bytes.Equal(raw, again) {
		t.Fatal("two runs of seed 1 wrote different profiles")
	}
	txt, err := exec.Command("go", "tool", "pprof", "-raw", filepath.Join(dir, "a.pprof")).Output()
	if err != nil {
		t.Fatalf("go tool pprof -raw: %v", err)
	}
	sums := map[string]time.Duration{}
	for _, m := range rawSample.FindAllStringSubmatch(string(txt), -1) {
		v, _ := strconv.ParseInt(m[1], 10, 64)
		labels := map[string]string{}
		for _, l := range rawLabel.FindAllStringSubmatch(m[2], -1) {
			labels[l[1]] = l[2]
		}
		p := labels["process"]
		sums[p] += time.Duration(v)
		if ns, ok := strings.CutPrefix(p, "wl:"); ok && !strings.HasPrefix(ns, labels["tenant"]+"#") {
			t.Errorf("%s: tenant label %q", p, labels["tenant"])
		}
	}
	end := logTime(t, log, `clean — .*, ([0-9.]+[µnm]?s) sim time`)
	if done := logTime(t, log, `\[ *([0-9.]+[µnm]?s)\] done: `); sums["chaos-driver"] != done {
		t.Errorf("chaos-driver: samples sum to %v, lifetime %v (0 to its done line)", sums["chaos-driver"], done)
	}
	up := logTime(t, log, `\[ *([0-9.]+[µnm]?s)\] roster up`)
	workloads := 0
	for p, sum := range sums {
		if strings.HasPrefix(p, "wl:") {
			workloads++
			if sum <= 0 || sum > end-up {
				t.Errorf("%s: samples sum to %v, outside its start at %v or later and the run's end at %v", p, sum, up, end)
			}
		}
	}
	if workloads == 0 {
		t.Fatalf("no workload process in the profile of %d processes", len(sums))
	}
}
