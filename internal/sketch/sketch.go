// Package sketch implements the Count-Sketch of Charikar, Chen,
// Farach-Colton (ICALP 2002) and the dyadic-rectangle range-sum summary
// built from it — the "sketch" baseline of §6 of Cohen, Cormode, Duffield
// (VLDB 2011).
//
// For two-dimensional range sums, one sketch is kept per pair of dyadic
// levels (lx, ly): (bitsX+1)(bitsY+1) sketches in total, splitting the space
// budget evenly. Each input key updates every sketch (one dyadic ancestor
// rectangle per level pair), which is why construction costs ~log X · log Y
// per item; a range query decomposes into ≤ 2·bitsX × 2·bitsY dyadic
// rectangles, each estimated from its level-pair sketch. As the paper
// observes, the per-sketch space after dividing the budget 1000 ways is so
// small that 2-D sketch accuracy is "off the scale" for realistic budgets.
package sketch

import (
	"fmt"
	"sort"

	"structaware/internal/structure"
	"structaware/internal/xmath"
)

// CountSketch is a rows×cols Count-Sketch for estimating weights of uint64
// keys under turnstile updates.
type CountSketch struct {
	rows, cols int
	table      []float64 // rows * cols
	seeds      []uint64  // per-row hash seed
}

// NewCountSketch creates a sketch with the given shape. rows should be odd
// (median estimator); cols ≥ 1.
func NewCountSketch(rows, cols int, seed uint64) (*CountSketch, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("sketch: invalid shape %dx%d", rows, cols)
	}
	cs := &CountSketch{rows: rows, cols: cols, table: make([]float64, rows*cols), seeds: make([]uint64, rows)}
	for r := range cs.seeds {
		cs.seeds[r] = xmath.Hash64(seed + uint64(r)*0x9e3779b97f4a7c15)
	}
	return cs, nil
}

// Update adds w to key's frequency.
func (cs *CountSketch) Update(key uint64, w float64) {
	for r := 0; r < cs.rows; r++ {
		h := xmath.Hash64(key ^ cs.seeds[r])
		bucket := int(h % uint64(cs.cols))
		sign := 1.0
		if (h>>63)&1 == 1 {
			sign = -1
		}
		cs.table[r*cs.cols+bucket] += sign * w
	}
}

// Estimate returns the median-of-rows estimate of key's total weight.
func (cs *CountSketch) Estimate(key uint64) float64 {
	est := make([]float64, cs.rows)
	for r := 0; r < cs.rows; r++ {
		h := xmath.Hash64(key ^ cs.seeds[r])
		bucket := int(h % uint64(cs.cols))
		sign := 1.0
		if (h>>63)&1 == 1 {
			sign = -1
		}
		est[r] = sign * cs.table[r*cs.cols+bucket]
	}
	sort.Float64s(est)
	mid := cs.rows / 2
	if cs.rows%2 == 1 {
		return est[mid]
	}
	return (est[mid-1] + est[mid]) / 2
}

// Counters returns the total number of counters (the space in "elements").
func (cs *CountSketch) Counters() int { return cs.rows * cs.cols }

// Dyadic2D is the 2-D range-sum summary: one Count-Sketch per dyadic level
// pair.
type Dyadic2D struct {
	BitsX, BitsY int
	Rows         int
	sketches     []*CountSketch // (bitsX+1) * (bitsY+1)
}

// NewDyadic2D builds the structure with a total budget of `size` counters
// split evenly across the (bitsX+1)(bitsY+1) level pairs. Every level pair
// keeps at least one column, so a budget below (bitsX+1)(bitsY+1)·rows
// counters is exceeded. rows defaults to 5 when 0.
func NewDyadic2D(bitsX, bitsY, size, rows int, seed uint64) (*Dyadic2D, error) {
	if bitsX < 1 || bitsX > 31 || bitsY < 1 || bitsY > 31 {
		return nil, fmt.Errorf("sketch: bits (%d,%d) out of range", bitsX, bitsY)
	}
	if rows <= 0 {
		rows = 5
	}
	pairs := (bitsX + 1) * (bitsY + 1)
	cols := size / (pairs * rows)
	if cols < 1 {
		cols = 1
	}
	d := &Dyadic2D{BitsX: bitsX, BitsY: bitsY, Rows: rows, sketches: make([]*CountSketch, pairs)}
	for i := range d.sketches {
		cs, err := NewCountSketch(rows, cols, seed+uint64(i))
		if err != nil {
			return nil, err
		}
		d.sketches[i] = cs
	}
	return d, nil
}

func (d *Dyadic2D) sketchAt(lx, ly int) *CountSketch {
	return d.sketches[lx*(d.BitsY+1)+ly]
}

// packKey packs a dyadic rectangle's translate pair into one key.
func packKey(kx, ky uint64) uint64 {
	return kx<<32 | (ky & 0xffffffff)
}

// Update adds weight w at point (x, y): one update per level pair.
func (d *Dyadic2D) Update(x, y uint64, w float64) {
	for lx := 0; lx <= d.BitsX; lx++ {
		kx := x >> uint(d.BitsX-lx)
		for ly := 0; ly <= d.BitsY; ly++ {
			ky := y >> uint(d.BitsY-ly)
			d.sketchAt(lx, ly).Update(packKey(kx, ky), w)
		}
	}
}

// EstimateRange estimates the weight inside the box by dyadic
// decomposition.
func (d *Dyadic2D) EstimateRange(r structure.Range) float64 {
	cellsX := structure.DyadicDecompose(r[0].Lo, r[0].Hi, d.BitsX)
	cellsY := structure.DyadicDecompose(r[1].Lo, r[1].Hi, d.BitsY)
	var sum float64
	for _, cx := range cellsX {
		for _, cy := range cellsY {
			sum += d.sketchAt(cx.Level, cy.Level).Estimate(packKey(cx.Index, cy.Index))
		}
	}
	return sum
}

// EstimateQuery sums EstimateRange over the disjoint boxes of q.
func (d *Dyadic2D) EstimateQuery(q structure.Query) float64 {
	var sum float64
	for _, r := range q {
		sum += d.EstimateRange(r)
	}
	return sum
}

// Size returns the total number of counters.
func (d *Dyadic2D) Size() int {
	total := 0
	for _, cs := range d.sketches {
		total += cs.Counters()
	}
	return total
}
