package main

// inputs.go makes every input of a run from its seed: the key pool (the
// paper's §6 network data, encoded once into wire frames that the load
// generator cycles), the query pool (uniform-area boxes), and the exact
// answers the correctness gates compare against.

import (
	"fmt"
	"slices"
	"time"

	"structaware/internal/loadgen"
	"structaware/internal/structure"
	"structaware/internal/wire"
	"structaware/internal/workload"
)

const (
	domainBits = 20   // both axes are bittrie:20
	frameKeys  = 4096 // keys per ingest frame
	queryPool  = 16384
	// boxMaxFrac caps each box's extent per axis: the paper's uniform-area
	// battery.
	boxMaxFrac = 0.10
	summary    = "net" // the live summary's name on the server
)

// subSeed derives an independent generator seed for one input of a run.
func subSeed(seed uint64, input uint64) uint64 {
	return seed*0x9e3779b97f4a7c15 + input
}

// networkKeys generates a workload.Network dataset over both 20-bit axes.
func networkKeys(pairs int, seed uint64) (*structure.Dataset, error) {
	return workload.Network(workload.NetworkConfig{Pairs: pairs, Bits: domainBits, Seed: seed})
}

// keyPool is a dataset cut into whole frames: frame f holds dataset keys
// [f*frameKeys, (f+1)*frameKeys); keys past the last whole frame are not
// used.
type keyPool struct {
	ds     *structure.Dataset
	frames [][]byte
	// frameWeight[f] is the weight sum of frame f's keys.
	frameWeight []float64
	// encode is the time wire.AppendFrame took to encode every frame.
	encode time.Duration
}

func newKeyPool(ds *structure.Dataset) (*keyPool, error) {
	n := ds.Len() / frameKeys
	if n == 0 {
		return nil, fmt.Errorf("key pool: %d keys is less than one frame", ds.Len())
	}
	p := &keyPool{ds: ds, frames: make([][]byte, n), frameWeight: make([]float64, n)}
	cols := make([][]uint64, ds.Dims())
	for f := range p.frames {
		lo, hi := f*frameKeys, (f+1)*frameKeys
		for d := range cols {
			cols[d] = ds.Coords[d][lo:hi]
		}
		t0 := time.Now()
		frame, err := wire.AppendFrame(nil, cols, ds.Weights[lo:hi])
		p.encode += time.Since(t0)
		if err != nil {
			return nil, err
		}
		p.frames[f] = frame
		for _, w := range ds.Weights[lo:hi] {
			p.frameWeight[f] += w
		}
	}
	return p, nil
}

// queries is the query pool: boxes, their range texts, and the estimate
// request path of each.
type queries struct {
	boxes []structure.Range
	texts []string
	paths []string
}

func newQueries(seed uint64) queries {
	dom := uint64(1) << domainBits
	boxes := loadgen.AreaBoxes([]uint64{dom, dom}, queryPool, boxMaxFrac, seed)
	q := queries{boxes: boxes, texts: loadgen.RangeTexts(boxes), paths: make([]string, len(boxes))}
	for i, t := range q.texts {
		// ':' and ',' are legal in a query string, so the text goes
		// unescaped: the form the server's allocation-free parser expects.
		q.paths[i] = "/v1/summaries/" + summary + "/estimate?range=" + t
	}
	return q
}

// oracle computes exact range sums over a key pool whose frames were
// delivered count[f] times each. Keys are sorted by their first coordinate
// so a box visits only the keys inside its first interval.
type oracle struct {
	x, y  []uint64
	w     []float64 // key weight times its frame's delivery count
	total float64
}

func newOracle(p *keyPool, count []int64) *oracle {
	n := len(p.frames) * frameKeys
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	xs := p.ds.Coords[0]
	slices.SortFunc(idx, func(a, b int) int {
		switch {
		case xs[a] < xs[b]:
			return -1
		case xs[a] > xs[b]:
			return 1
		}
		return a - b
	})
	o := &oracle{x: make([]uint64, n), y: make([]uint64, n), w: make([]float64, n)}
	for j, i := range idx {
		o.x[j] = xs[i]
		o.y[j] = p.ds.Coords[1][i]
		o.w[j] = p.ds.Weights[i] * float64(count[i/frameKeys])
		o.total += o.w[j]
	}
	return o
}

// rangeSum is the exact weight inside box.
func (o *oracle) rangeSum(box structure.Range) float64 {
	lo, _ := slices.BinarySearch(o.x, box[0].Lo)
	sum := 0.0
	for j := lo; j < len(o.x) && o.x[j] <= box[0].Hi; j++ {
		if y := o.y[j]; y >= box[1].Lo && y <= box[1].Hi {
			sum += o.w[j]
		}
	}
	return sum
}
