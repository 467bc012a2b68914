package varopt

import (
	"testing"

	"structaware/internal/xmath"
)

// TestStreamPairwiseInclusionBound verifies condition (iii) of the VarOpt
// definition for the stream reservoir: joint inclusion probabilities are
// bounded by the product of the marginals (negative correlation), for a set
// of fixed pairs, estimated over many runs.
func TestStreamPairwiseInclusionBound(t *testing.T) {
	ws := []float64{9, 7, 5, 3, 3, 2, 2, 1, 1, 1, 1, 1}
	const (
		k      = 4
		trials = 50000
	)
	n := len(ws)
	r := xmath.NewRand(99)
	marg := make([]float64, n)
	joint := make([][]float64, n)
	for i := range joint {
		joint[i] = make([]float64, n)
	}
	for trial := 0; trial < trials; trial++ {
		st, err := NewStream(k, r)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range ws {
			if _, err := st.Process(i, w); err != nil {
				t.Fatal(err)
			}
		}
		items, _ := st.Result()
		in := make([]bool, n)
		for _, it := range items {
			in[it.Index] = true
		}
		for i := 0; i < n; i++ {
			if in[i] {
				marg[i]++
			}
			for j := i + 1; j < n; j++ {
				if in[i] && in[j] {
					joint[i][j]++
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pi, pj := marg[i]/trials, marg[j]/trials
			pij := joint[i][j] / trials
			if pij > pi*pj+0.01 {
				t.Fatalf("pair (%d,%d): joint %v exceeds product %v", i, j, pij, pi*pj)
			}
		}
	}
}

// TestStreamFixedSizeThroughoutPrefix checks the reservoir is exactly
// min(k, seen) at every point of the stream, not only at the end.
func TestStreamFixedSizeThroughoutPrefix(t *testing.T) {
	r := xmath.NewRand(100)
	st, err := NewStream(7, r)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := st.Process(i, 1+10*r.Float64()); err != nil {
			t.Fatal(err)
		}
		items, _ := st.Result()
		want := i + 1
		if want > 7 {
			want = 7
		}
		if len(items) != want {
			t.Fatalf("after %d items: size %d want %d", i+1, len(items), want)
		}
	}
}
