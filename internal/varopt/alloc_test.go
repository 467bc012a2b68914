package varopt

import (
	"testing"

	"structaware/internal/xmath"
)

// TestStreamProcessZeroAllocSteadyState enforces the zero-allocation
// contract of the reservoir hot path: once the reservoir has overflowed, a
// Process call must not allocate — the demotion buffer, heap, and light pool
// took their full capacity when the reservoir first filled and are reused.
func TestStreamProcessZeroAllocSteadyState(t *testing.T) {
	r := xmath.NewRand(1)
	const k = 512
	st, err := NewStream(k, r)
	if err != nil {
		t.Fatal(err)
	}
	idx := 0
	push := func() {
		// Mix of light and heavy arrivals so both Process paths run.
		w := 1 + 10*r.Float64()
		if idx%37 == 0 {
			w *= 100
		}
		if _, err := st.Process(idx, w); err != nil {
			t.Fatal(err)
		}
		idx++
	}
	for idx < 8*k { // warm up well past overflow
		push()
	}
	if st.Tau() <= 0 {
		t.Fatal("reservoir never overflowed; steady state not reached")
	}
	if allocs := testing.AllocsPerRun(2000, push); allocs != 0 {
		t.Fatalf("steady-state Process allocated %v times per call", allocs)
	}
}
