package ring

import "testing"

func TestFIFOAcrossGrowthAndWraparound(t *testing.T) {
	var r Ring[int]
	next, want := 0, 0
	// Interleave pushes and pops so the head walks around the buffer while
	// it grows: order must hold through every regrowth and wrap.
	for round := 0; round < 50; round++ {
		for i := 0; i < round%7+1; i++ {
			r.Push(next)
			next++
		}
		for i := 0; i < round%5; i++ {
			v, ok := r.Pop()
			if !ok {
				break
			}
			if v != want {
				t.Fatalf("popped %d, want %d", v, want)
			}
			want++
		}
	}
	for r.Len() > 0 {
		v, _ := r.Pop()
		if v != want {
			t.Fatalf("drain popped %d, want %d", v, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d values, pushed %d", want, next)
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop on an empty ring reported a value")
	}
}

// The retention regression: a queue popped with q = q[1:] keeps every popped
// element reachable from its backing array. A drained ring must hold no
// reference to anything it handed out, in any slot.
func TestDrainedRingHoldsNoReferences(t *testing.T) {
	var r Ring[*int]
	for i := 0; i < 37; i++ { // not a power of two: forces growth mid-stream
		if i%3 == 2 {
			r.Pop()
		}
		v := i
		r.Push(&v)
	}
	for r.Len() > 0 {
		r.Pop()
	}
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("slot %d of a drained ring still holds a pointer", i)
		}
	}
}

func TestSteadyStateDoesNotAllocate(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 8; i++ {
		r.Push(i)
	}
	if n := testing.AllocsPerRun(100, func() {
		r.Push(1)
		r.Pop()
	}); n != 0 {
		t.Fatalf("push+pop on a warm ring allocated %v times", n)
	}
}
