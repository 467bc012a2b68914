package twopass

import (
	"reflect"
	"testing"

	"structaware/internal/xmath"
)

// TestProductColumnarMatchesRowPath: pass 1 over a ColumnSource must
// produce exactly the sample that the row-at-a-time path produces at the
// same seed — the batch path is a fast path, not a different construction.
func TestProductColumnarMatchesRowPath(t *testing.T) {
	r := xmath.NewRand(31)
	ds := random2D(t, r, 4000, 16)

	// Row path: SliceSource only implements Source.
	pts := make([][]uint64, ds.Len())
	for i := range pts {
		pts[i] = ds.Point(i, nil)
	}
	rowSrc := &SliceSource{Points: pts, Weights: ds.Weights}
	rowRes, err := Product(rowSrc, ds.Axes, 100, Config{}, xmath.NewRand(77))
	if err != nil {
		t.Fatal(err)
	}

	// Column path: DatasetSource upgrades to ColumnSource.
	colSrc := &DatasetSource{DS: ds}
	colRes, err := Product(colSrc, ds.Axes, 100, Config{}, xmath.NewRand(77))
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(rowRes, colRes) {
		t.Fatalf("row path (%d keys, τ=%v, %d cells) and column path (%d keys, τ=%v, %d cells) differ",
			rowRes.Size(), rowRes.Tau, rowRes.Cells, colRes.Size(), colRes.Tau, colRes.Cells)
	}
}
