package varopt

import (
	"math"
	"testing"

	"structaware/internal/xmath"
)

// feedStream pushes n deterministic heavy-tailed weights into st, starting
// at index base.
func feedStream(t *testing.T, st *Stream, base, n int, seed uint64) {
	t.Helper()
	r := xmath.NewRand(seed)
	for i := 0; i < n; i++ {
		if _, err := st.Process(base+i, math.Exp(5*r.Float64())); err != nil {
			t.Fatal(err)
		}
	}
}

// sameResult compares two reservoir results item by item (bitwise weights).
func sameResult(t *testing.T, got, want *Stream, label string) {
	t.Helper()
	gs, gi := got.Result()
	ws, wi := want.Result()
	if math.Float64bits(gs.Tau) != math.Float64bits(ws.Tau) {
		t.Fatalf("%s: tau %v vs %v", label, gs.Tau, ws.Tau)
	}
	if len(gi) != len(wi) {
		t.Fatalf("%s: %d items vs %d", label, len(gi), len(wi))
	}
	for k := range gi {
		if gi[k].Index != wi[k].Index || math.Float64bits(gi[k].Weight) != math.Float64bits(wi[k].Weight) {
			t.Fatalf("%s: item %d: %+v vs %+v", label, k, gi[k], wi[k])
		}
	}
}

// TestStreamCloneIsDeepAndDeterministic: a clone taken mid-stream (with a
// copy of the generator state) is frozen at the clone point until fed, and
// feeding both copies the same suffix keeps them bit-identical — the
// invariant core.Builder.Snapshot is built on.
func TestStreamCloneIsDeepAndDeterministic(t *testing.T) {
	const k, half = 60, 500
	r := xmath.NewRand(7)
	st, err := NewStream(k, r)
	if err != nil {
		t.Fatal(err)
	}
	feedStream(t, st, 0, half, 11)

	// Reference for the clone point: a fresh stream fed the same prefix.
	atHalf, err := NewStream(k, xmath.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	feedStream(t, atHalf, 0, half, 11)

	cl := st.Clone(r.Clone())
	sameResult(t, cl, atHalf, "clone at half")
	if cl.Seen() != st.Seen() || cl.Tau() != st.Tau() || cl.Len() != st.Len() {
		t.Fatalf("clone state (%d,%v,%d) vs (%d,%v,%d)",
			cl.Seen(), cl.Tau(), cl.Len(), st.Seen(), st.Tau(), st.Len())
	}

	// Advancing the original must not disturb the clone...
	feedStream(t, st, half, half, 13)
	sameResult(t, cl, atHalf, "clone after original advanced")

	// ...and the clone, fed the same suffix, lands bit-identical to the
	// original (its generator was a copy of the original's state).
	feedStream(t, cl, half, half, 13)
	sameResult(t, cl, st, "clone fed same suffix")
}
