package telemetry

import (
	"cmp"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"

	"repro/internal/sim"
)

// WriteSimProfile writes a sim-time profile (Env.SimProfile) to w as a gzip'd
// pprof profile.proto with one sample type, sim_nanoseconds, so `go tool
// pprof` reads it as it reads a CPU profile: -top, -tagfocus tenant=…,
// -tagfocus process=…. Each sample's labels are its process and, when it has
// one, its tenant. Locations, functions and strings are numbered in the order
// the samples first use them, so one seed's run encodes to the same bytes.
// ReadProfile is its mirror: the same fields, read instead of written.
func WriteSimProfile(w io.Writer, samples []sim.ProfileSample) error {
	var e profileEncoder
	e.strings = map[string]uint64{"": 0}
	e.table = []string{""}
	e.locs = map[uintptr]uint64{}
	e.funcs = map[[2]string]uint64{}

	var vt protoMsg // ValueType: type, unit
	vt.uint(1, e.str("sim_nanoseconds"))
	vt.uint(2, e.str("nanoseconds"))
	e.out.bytes(1, vt) // sample_type
	for _, s := range samples {
		var m, ids protoMsg
		for _, pc := range s.Stack {
			ids.varint(e.location(pc))
		}
		m.bytes(1, ids) // location_id, packed
		var v protoMsg
		v.varint(uint64(s.Time))
		m.bytes(2, v) // value, packed
		m.bytes(3, e.label("process", s.Process))
		if s.Tenant != "" {
			m.bytes(3, e.label("tenant", s.Tenant))
		}
		e.out.bytes(2, m) // sample
	}
	e.out = append(e.out, e.defs...) // location and function
	for _, s := range e.table {
		e.out.bytes(6, protoMsg(s)) // string_table
	}

	zw := gzip.NewWriter(w)
	if _, err := zw.Write(e.out); err != nil {
		return err
	}
	return zw.Close()
}

// profileEncoder holds a profile being encoded: the message so far, the
// location and function messages, and the tables that number them.
type profileEncoder struct {
	out, defs protoMsg
	strings   map[string]uint64
	table     []string
	locs      map[uintptr]uint64
	funcs     map[[2]string]uint64 // (name, file)
}

// str returns s's string_table index.
func (e *profileEncoder) str(s string) uint64 {
	if i, ok := e.strings[s]; ok {
		return i
	}
	i := uint64(len(e.table))
	e.strings[s], e.table = i, append(e.table, s)
	return i
}

// label returns a Label message: key, str.
func (e *profileEncoder) label(key, val string) protoMsg {
	var l protoMsg
	l.uint(1, e.str(key))
	l.uint(2, e.str(val))
	return l
}

// location returns pc's location id, defining the location (and the
// functions of its frames, inlined ones innermost first) on first sight.
func (e *profileEncoder) location(pc uintptr) uint64 {
	if id, ok := e.locs[pc]; ok {
		return id
	}
	id := uint64(len(e.locs) + 1)
	e.locs[pc] = id
	var loc protoMsg
	loc.uint(1, id)
	loc.uint(3, uint64(pc)) // address
	frames := runtime.CallersFrames([]uintptr{pc})
	for {
		f, more := frames.Next()
		var line protoMsg
		line.uint(1, e.function(f.Function, f.File))
		line.uint(2, uint64(f.Line))
		loc.bytes(4, line)
		if !more {
			break
		}
	}
	e.defs.bytes(4, loc)
	return id
}

// function returns the id of the function name in file, defining it on first
// sight: id, name, filename.
func (e *profileEncoder) function(name, file string) uint64 {
	k := [2]string{name, file}
	if id, ok := e.funcs[k]; ok {
		return id
	}
	id := uint64(len(e.funcs) + 1)
	e.funcs[k] = id
	var fn protoMsg
	fn.uint(1, id)
	fn.uint(2, e.str(name))
	fn.uint(4, e.str(file))
	e.defs.bytes(5, fn)
	return id
}

// protoMsg is a protobuf message being encoded.
type protoMsg []byte

func (m *protoMsg) varint(v uint64) { *m = binary.AppendUvarint(*m, v) }

// uint writes field num as a varint (wire type 0).
func (m *protoMsg) uint(num int, v uint64) {
	m.varint(uint64(num)<<3 | 0)
	m.varint(v)
}

// bytes writes field num as length-delimited data (wire type 2): a string, a
// nested message or a packed repeated field.
func (m *protoMsg) bytes(num int, data []byte) {
	m.varint(uint64(num)<<3 | 2)
	m.varint(uint64(len(data)))
	*m = append(*m, data...)
}

// Profile is a pprof profile.proto as ReadProfile decodes it.
type Profile struct {
	SampleTypes []SampleType // one per value of every sample
	Samples     []Sample
}

// SampleType names one value column of a profile: "sim_nanoseconds" in
// "nanoseconds", or a CPU profile's "samples"/"count" and "cpu"/"nanoseconds".
type SampleType struct{ Type, Unit string }

// Sample is one decoded sample: its values, one per sample type; its stack as
// function names, leaf first, with a location's inlined frames innermost
// first; and its string labels.
type Sample struct {
	Values []int64
	Stack  []string
	Labels map[string]string
}

// ReadProfile decodes a gzip'd pprof profile.proto, as WriteSimProfile and
// runtime/pprof write them. Only the fields a Profile holds are read; a sample
// that names a location, function or string the profile does not define is
// an error.
func ReadProfile(r io.Reader) (*Profile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("telemetry: profile: %w", err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: profile: %w", err)
	}
	// Strings come last, so fields are kept as indices and resolved after.
	type rawSample struct{ locs, values, labels []uint64 } // labels: key, str pairs
	var (
		strs    []string
		types   []uint64 // type, unit pairs
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]uint64{}   // function id -> name
	)
	err = eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type: type, unit
			typ, unit, err := fields12(data)
			types = append(types, typ, unit)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(data, func(num int, v uint64, data []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = appendVarints(s.locs, v, data)
				case 2:
					s.values, err = appendVarints(s.values, v, data)
				case 3: // label: key, str
					var key, str uint64
					key, str, err = fields12(data)
					s.labels = append(s.labels, key, str)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function: id, name
			id, name, err := fields12(data)
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("telemetry: profile: %w", err)
	}
	var bad error // the first index the profile does not define
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		bad = cmp.Or(bad, fmt.Errorf("telemetry: profile: string %d of %d undefined", i, len(strs)))
		return ""
	}
	prof := &Profile{}
	for i := 0; i+1 < len(types); i += 2 {
		prof.SampleTypes = append(prof.SampleTypes, SampleType{str(types[i]), str(types[i+1])})
	}
	for _, rs := range samples {
		s := Sample{Values: make([]int64, len(rs.values)), Labels: map[string]string{}}
		for i, v := range rs.values {
			s.Values[i] = int64(v)
		}
		for _, loc := range rs.locs {
			fns, ok := locs[loc]
			if !ok {
				bad = cmp.Or(bad, fmt.Errorf("telemetry: profile: location %d undefined", loc))
			}
			for _, fn := range fns {
				name, ok := funcs[fn]
				if !ok {
					bad = cmp.Or(bad, fmt.Errorf("telemetry: profile: function %d undefined", fn))
				}
				s.Stack = append(s.Stack, str(name))
			}
		}
		for i := 0; i+1 < len(rs.labels); i += 2 {
			s.Labels[str(rs.labels[i])] = str(rs.labels[i+1])
		}
		prof.Samples = append(prof.Samples, s)
	}
	if bad != nil {
		return nil, bad
	}
	return prof, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField calls fn with the number of every field of one message and its
// varint value (wire type 0) or its bytes (wire type 2: a string, a nested
// message or a packed repeated field).
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		wire := key & 7
		if wire != 0 && wire != 2 { // profile.proto has no fixed-width field
			return fmt.Errorf("protobuf wire type %d", wire)
		}
		v, m := binary.Uvarint(b[n:])
		if m <= 0 {
			return errTruncated
		}
		b = b[n+m:]
		var data []byte
		if wire == 2 {
			if v > uint64(len(b)) {
				return errTruncated
			}
			data, b, v = b[:v], b[v:], 0
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// fields12 returns a message's varint fields 1 and 2, zero where absent (as
// proto3 omits a zero).
func fields12(data []byte) (f1, f2 uint64, err error) {
	err = eachField(data, func(num int, v uint64, _ []byte) error {
		switch num {
		case 1:
			f1 = v
		case 2:
			f2 = v
		}
		return nil
	})
	return f1, f2, err
}

// appendVarints appends a repeated integer field's values: v itself when the
// field came unpacked (data is nil), else every varint packed in data.
func appendVarints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errTruncated
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
