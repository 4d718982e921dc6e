package telemetry

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
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

// pbFields splits one protobuf message into its fields: varints as values,
// length-delimited fields as bytes (the only two wire types the encoder
// writes).
func pbFields(t *testing.T, b []byte) (nums []int, vals []uint64, data [][]byte) {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		b = b[n:]
		v, n := binary.Uvarint(b)
		b = b[n:]
		var d []byte
		switch key & 7 {
		case 0:
		case 2:
			d, b = b[:v], b[v:]
		default:
			t.Fatalf("wire type %d", key&7)
		}
		nums, vals, data = append(nums, int(key>>3)), append(vals, v), append(data, d)
	}
	return nums, vals, data
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
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var strs []string
	var sampleType, samples, locs [][]byte
	funcName := map[uint64]uint64{}
	nums, _, data := pbFields(t, b)
	for i, num := range nums {
		switch num {
		case 1:
			sampleType = append(sampleType, data[i])
		case 2:
			samples = append(samples, data[i])
		case 4:
			locs = append(locs, data[i])
		case 5:
			fn, fv, _ := pbFields(t, data[i])
			funcName[fv[0]] = fv[1]
			if fn[0] != 1 || fn[1] != 2 {
				t.Fatalf("function fields %v", fn)
			}
		case 6:
			strs = append(strs, string(data[i]))
		}
	}
	if len(sampleType) != 1 {
		t.Fatalf("%d sample types", len(sampleType))
	}
	if _, v, _ := pbFields(t, sampleType[0]); strs[v[0]] != "sim_nanoseconds" || strs[v[1]] != "nanoseconds" {
		t.Fatalf("sample type %s/%s", strs[v[0]], strs[v[1]])
	}
	leaf := map[uint64]string{} // location id -> its innermost function
	for _, l := range locs {
		nums, vals, data := pbFields(t, l)
		for i, num := range nums {
			if num == 4 && leaf[vals[0]] == "" {
				_, lv, _ := pbFields(t, data[i])
				leaf[vals[0]] = strs[funcName[lv[0]]]
			}
		}
	}
	sums := map[string]time.Duration{}
	for _, s := range samples {
		var locIDs []uint64
		var ns uint64
		labels := map[string]string{}
		nums, _, data := pbFields(t, s)
		for i, num := range nums {
			switch num {
			case 1:
				for d := data[i]; len(d) > 0; {
					id, n := binary.Uvarint(d)
					locIDs, d = append(locIDs, id), d[n:]
				}
			case 2:
				ns, _ = binary.Uvarint(data[i])
			case 3:
				_, lv, _ := pbFields(t, data[i])
				labels[strs[lv[0]]] = strs[lv[1]]
			}
		}
		if !strings.HasPrefix(leaf[locIDs[0]], "repro/internal/sim.(*Proc).") {
			t.Errorf("sample leaf %q, want the blocking Proc method", leaf[locIDs[0]])
		}
		if want := strings.TrimPrefix(labels["process"], "tenant:"); labels["tenant"] != want {
			t.Errorf("labels %v: tenant %q, want %q", labels, labels["tenant"], want)
		}
		sums[labels["process"]] += time.Duration(ns)
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
