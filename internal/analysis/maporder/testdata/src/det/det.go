// Package det replays the PR 6 wavelet estimate bug: coefficient
// contributions were accumulated by ranging over a map, so float
// addition order followed Go's randomized map iteration and two servers
// holding bit-identical summaries disagreed on the same query. It also
// replays the two-pass hierarchy bug: cells collected from a set of
// selected nodes and sorted by depth alone kept map order among nodes of
// equal depth, so the sampler drew a different sample on every run.
//
//sasvet:deterministic
package det

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
)

type summary struct {
	coeff map[uint64]float64
}

// EstimateRange replays the PR 6 bug verbatim: the accumulation order
// follows map iteration order, and float addition is not associative.
func (s *summary) EstimateRange() float64 {
	var total float64
	for _, v := range s.coeff { // want "accumulates floating-point"
		total += v
	}
	return total
}

// EstimateSorted is the canonical fix: collect keys, sort, iterate.
func (s *summary) EstimateSorted() float64 {
	keys := make([]uint64, 0, len(s.coeff))
	for k := range s.coeff {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var total float64
	for _, k := range keys {
		total += s.coeff[k]
	}
	return total
}

// MarshalCoeffs writes bytes in iteration order: serialization output
// differs run to run.
func MarshalCoeffs(s *summary, w io.Writer) {
	for k, v := range s.coeff { // want "feeds serialization"
		fmt.Fprintf(w, "%d=%g;", k, v)
	}
}

// Keys leaks iteration order through an unsorted slice.
func Keys(s *summary) []uint64 {
	var out []uint64
	for k := range s.coeff { // want "never sorted afterwards"
		out = append(out, k)
	}
	return out
}

// EstimateAll's helper is order-sensitive only via reachability: the
// loop body just calls out, but the call path starts at an Estimate*
// entry point whose answer must be bit-stable.
func EstimateAll(s *summary) float64 {
	helperVisit(s, func(k uint64) {})
	return 0
}

func helperVisit(s *summary, sink func(uint64)) {
	for k := range s.coeff { // want "reachable from EstimateAll"
		sink(k)
	}
}

// Count is order-insensitive bookkeeping: integer counting is blessed.
func Count(s *summary) int {
	n := 0
	for range s.coeff {
		n++
	}
	return n
}

// DebugDump carries a reasoned suppression: ordering genuinely does not
// matter for operator-facing debug output.
func DebugDump(s *summary) {
	//sasvet:ok debug output for operators, ordering is irrelevant
	for k, v := range s.coeff {
		fmt.Printf("%d=%g\n", k, v)
	}
}

// CellsByDepth replays the two-pass hierarchy bug: the sort's only key is
// derived from the element, so nodes of equal depth keep map order.
func CellsByDepth(selected map[int32]bool, depth func(int32) int) []int32 {
	nodes := make([]int32, 0, len(selected))
	for v := range selected { // want "sorted by a derived key that can tie"
		nodes = append(nodes, v)
	}
	sort.Slice(nodes, func(a, b int) bool { return depth(nodes[a]) > depth(nodes[b]) })
	return nodes
}

// CellsByDepthThenID is the fix: depth ties fall back to the node id, so
// the comparator is a total order on the collected elements.
func CellsByDepthThenID(selected map[int32]bool, depth func(int32) int) []int32 {
	nodes := make([]int32, 0, len(selected))
	for v := range selected {
		nodes = append(nodes, v)
	}
	sort.Slice(nodes, func(a, b int) bool {
		if da, db := depth(nodes[a]), depth(nodes[b]); da != db {
			return da > db
		}
		return nodes[a] < nodes[b]
	})
	return nodes
}

// SortedIDs compares the elements themselves through cmp.Compare.
func SortedIDs(selected map[int32]bool) []int32 {
	ids := make([]int32, 0, len(selected))
	for v := range selected {
		ids = append(ids, v)
	}
	slices.SortFunc(ids, func(a, b int32) int { return cmp.Compare(a, b) })
	return ids
}

// ByDepth sorts with slices.SortFunc on a derived key alone.
func ByDepth(selected map[int32]bool, depth func(int32) int) []int32 {
	ids := make([]int32, 0, len(selected))
	for v := range selected { // want "sorted by a derived key that can tie"
		ids = append(ids, v)
	}
	slices.SortFunc(ids, func(a, b int32) int { return cmp.Compare(depth(a), depth(b)) })
	return ids
}
