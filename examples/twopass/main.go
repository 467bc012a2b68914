// Twopass: the I/O-efficient construction of §5 on a dataset too large to
// summarize comfortably with full in-memory sorting — two sequential reads
// of a rewindable twopass.Source, working state of O(s') beyond the input
// itself. The example reads the dataset in place through the zero-copy
// twopass.DatasetSource, exactly as Build(AwareTwoPass) does; a CSVSource
// over a file on disk runs the same construction. It reports the
// guide-sample size, partition cell count, and accuracy parity with the
// main-memory construction.
//
// Run with: go run ./examples/twopass
package main

import (
	"fmt"
	"log"
	"time"

	"structaware"
	"structaware/internal/twopass"
	"structaware/internal/workload"
	"structaware/internal/xmath"
)

func main() {
	ds, err := workload.Network(workload.NetworkConfig{Pairs: 300000, Bits: 24, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("input: %d distinct keys over a 2^24 × 2^24 domain\n", ds.Len())

	const s = 2000
	start := time.Now()
	res, err := twopass.Product(&twopass.DatasetSource{DS: ds}, ds.Axes, s, twopass.Config{Oversample: 5}, xmath.NewRand(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("two-pass sample: %d keys in %v\n", res.Size(), time.Since(start).Round(time.Millisecond))
	fmt.Printf("  guide sample S' = %d keys, kd partition = %d cells, τ = %.2f\n",
		res.GuideSize, res.Cells, res.Tau)
	fmt.Printf("  working state beyond the input: O(s') = %d guide keys + %d active slots\n\n",
		res.GuideSize, res.Cells)

	// Accuracy parity with the main-memory construction, and both against
	// oblivious, on prefix-box queries.
	mm, err := structaware.Build(ds, structaware.Config{Size: s, Method: structaware.Aware, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	ob, err := structaware.Build(ds, structaware.Config{Size: s, Method: structaware.Oblivious, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	tp, err := structaware.Build(ds, structaware.Config{Size: s, Method: structaware.AwareTwoPass, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}

	r := xmath.NewRand(17)
	var errMM, errTP, errOB float64
	const queries = 100
	for q := 0; q < queries; q++ {
		box := structaware.Range{randPrefix(r, 24), randPrefix(r, 24)}
		exact := ds.RangeSum(box)
		errMM += abs(mm.EstimateRange(box) - exact)
		errTP += abs(tp.EstimateRange(box) - exact)
		errOB += abs(ob.EstimateRange(box) - exact)
	}
	fmt.Printf("mean absolute error on %d prefix-box queries (size %d):\n", queries, s)
	fmt.Printf("  aware (main memory)  %12.0f\n", errMM/queries)
	fmt.Printf("  aware (two-pass)     %12.0f\n", errTP/queries)
	fmt.Printf("  oblivious            %12.0f\n", errOB/queries)
}

func randPrefix(r *xmath.SplitMix, bits int) structaware.Interval {
	plen := 2 + r.Intn(6)
	p := r.Uint64() & ((1 << uint(plen)) - 1)
	return structaware.Interval{
		Lo: p << uint(bits-plen),
		Hi: (p+1)<<uint(bits-plen) - 1,
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
