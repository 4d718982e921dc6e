package sim

import (
	"encoding/binary"
	"runtime"
	"slices"
	"time"
)

// ProfileSample is one line of the simulated-time profile: the simulated time
// the processes of one name spent blocked at one Go call stack.
type ProfileSample struct {
	Stack   []uintptr     // return PCs, leaf first, as runtime.Callers gives them
	Process string        // the blocked process's name
	Tenant  string        // the tenant its name belongs to, "" for none
	Time    time.Duration // simulated time spent blocked there
}

// maxProfileDepth bounds a captured stack. A process's stack reaches back
// only to its own function, so real ones are far shorter.
const maxProfileDepth = 64

// simProfile is the sim-time profile being recorded: one sample per process
// name and stack, in the order they were first seen, which the kernel's
// total order fixes for a seed.
type simProfile struct {
	tenantOf func(process string) string
	index    map[string]int // process name, NUL, then stack PCs → samples index
	samples  []ProfileSample
	key      []byte
	pcs      [maxProfileDepth]uintptr
}

// StartSimProfile begins charging simulated time to Go call stacks: every
// blocking call (Sleep, Wait, WaitAny, WaitTimeout, Resource.Acquire and the
// Chan gets all block through Proc.resumed) captures its stack inside the
// process, and its resume charges the time that passed since. Each sample is
// labelled with the process's name and with tenantOf of it (nil labels no
// tenant). Since simulated time passes only while processes block, the
// samples of a process sum to its lifetime, from its first step to its
// return. It covers the processes first resumed after it is called. Recording
// consumes no seqs and adds no steps, and a resume in place is charged as a
// switched one is, so a run's step order and Stats are the same with the
// profile on; off, it costs one flag check per block.
func (e *Env) StartSimProfile(tenantOf func(process string) string) {
	e.prof = &simProfile{tenantOf: tenantOf, index: map[string]int{}}
}

// SimProfile returns the samples recorded since StartSimProfile (nil when it
// was never called). They are the kernel's own: read, do not modify.
func (e *Env) SimProfile() []ProfileSample {
	if e.prof == nil {
		return nil
	}
	return e.prof.samples
}

// sample returns the index of the sample for name at the stack that is
// blocking, from Proc.resumed's caller (Sleep, park) out, adding it on first
// sight.
func (pr *simProfile) sample(name string) int {
	stack := pr.pcs[:runtime.Callers(3, pr.pcs[:])]
	k := append(append(pr.key[:0], name...), 0)
	for _, pc := range stack {
		k = binary.LittleEndian.AppendUint64(k, uint64(pc))
	}
	pr.key = k
	if i, ok := pr.index[string(k)]; ok {
		return i
	}
	s := ProfileSample{Stack: slices.Clone(stack), Process: name}
	if pr.tenantOf != nil {
		s.Tenant = pr.tenantOf(name)
	}
	pr.index[string(k)] = len(pr.samples)
	pr.samples = append(pr.samples, s)
	return len(pr.samples) - 1
}
