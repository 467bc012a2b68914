package kd

import (
	"structaware/internal/structure"
	"structaware/internal/xmath"
)

// RandomRefInput exposes randomRefInput's cases to the external tests,
// which import packages that import kd.
func RandomRefInput(r *xmath.SplitMix) (ds *structure.Dataset, items []int, p []float64, seed uint64) {
	in := randomRefInput(r)
	return in.ds, in.items, in.p, in.seed
}
