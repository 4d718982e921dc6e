package telemetry

import (
	"compress/gzip"
	"encoding/binary"
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
// It is the mirror of the decoder the benchmark's CPU shares are read with:
// the same fields, written instead of read.
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
