package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader of the pprof profile format (gzipped protobuf): just
// enough of profile.proto to walk each CPU sample's stack by function name.
// go.mod stays dependency-free and nothing is shelled out to.

var errTruncated = errors.New("truncated protobuf")

// protoField is one decoded field: varint value or length-delimited bytes.
type protoField struct {
	num  int
	wire int
	val  uint64
	data []byte
}

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// eachField calls fn for every field of one message.
func eachField(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return err
		}
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.val, rest, err = readVarint(rest); err != nil {
				return err
			}
		case 1:
			if len(rest) < 8 {
				return errTruncated
			}
			rest = rest[8:]
		case 2:
			var n uint64
			if n, rest, err = readVarint(rest); err != nil {
				return err
			}
			if uint64(len(rest)) < n {
				return errTruncated
			}
			f.data, rest = rest[:n], rest[n:]
		case 5:
			if len(rest) < 4 {
				return errTruncated
			}
			rest = rest[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

// repeatedVarint appends a repeated integer field's values, packed or not.
func repeatedVarint(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.val), nil
	}
	b := f.data
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

type profSample struct {
	locs   []uint64 // leaf first
	values []uint64
}

// profileStacks decodes a profile into samples whose stacks are function
// names, leaf first, inlined frames expanded.
func profileStacks(raw []byte) (stacks [][]string, weights []float64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	var samples []profSample
	var strs []string
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]uint64{}   // function id -> string index
	err = eachField(b, func(f protoField) error {
		switch f.num {
		case 2: // sample
			var s profSample
			err := eachField(f.data, func(g protoField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = repeatedVarint(s.locs, g)
				case 2:
					s.values, err = repeatedVarint(s.values, g)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(f.data, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.val
				case 4: // line
					return eachField(g.data, func(h protoField) error {
						if h.num == 1 {
							fns = append(fns, h.val)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(f.data, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					stack = append(stack, strs[idx])
				}
			}
		}
		stacks = append(stacks, stack)
		// CPU profiles carry [samples, cpu nanoseconds]; weigh by the last.
		weights = append(weights, float64(s.values[len(s.values)-1]))
	}
	return stacks, weights, nil
}

const repoPrefix = "repro/internal/"

// chargeTo names the bucket one stack's CPU time goes to: the deepest repo
// frame's package; failing that the benchmark's own frames, then the
// collector's background workers, then the rest of the runtime.
func chargeTo(stack []string) string {
	bucket := "runtime_other"
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
		switch {
		case strings.HasPrefix(fn, "main."):
			return "benchmark"
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"), strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"), strings.HasPrefix(fn, "runtime.gcDrain"):
			bucket = "gc"
		}
	}
	return bucket
}

// foldProfile folds a CPU profile into each bucket's share of the samples
// (no buckets at all for a run too short to be sampled).
func foldProfile(raw []byte) (map[string]float64, error) {
	stacks, weights, err := profileStacks(raw)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	for i, st := range stacks {
		shares[chargeTo(st)] += weights[i]
		total += weights[i]
	}
	for k := range shares {
		shares[k] /= total // total > 0 whenever there is a key
	}
	return shares, nil
}
