package workload

import (
	"fmt"

	"structaware/internal/hierarchy"
	"structaware/internal/structure"
	"structaware/internal/xmath"
)

// TicketConfig parameterizes the Tickets generator. Defaults follow the
// paper's Technical Ticket dataset: ~4.8K trouble codes, 80K network
// locations, 500K ticket records over two explicit hierarchies with varying
// branching factors.
type TicketConfig struct {
	TroubleLeaves  int // 4800
	LocationLeaves int // 80000
	Tickets        int // 500000 records before dedup
	Seed           uint64
}

func (c TicketConfig) withDefaults() TicketConfig {
	if c.TroubleLeaves == 0 {
		c.TroubleLeaves = 4800
	}
	if c.LocationLeaves == 0 {
		c.LocationLeaves = 80000
	}
	if c.Tickets == 0 {
		c.Tickets = 500000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// RandomHierarchy builds a tree with exactly `leaves` leaves by recursively
// partitioning the leaf count into 2..maxBranch random parts — every
// internal node has a different branching factor, as in the paper's
// description of the ticket hierarchies.
func RandomHierarchy(r *xmath.SplitMix, leaves, maxBranch int) (*hierarchy.Tree, error) {
	if leaves < 1 {
		return nil, fmt.Errorf("workload: hierarchy needs at least one leaf")
	}
	if maxBranch < 2 {
		maxBranch = 2
	}
	b := hierarchy.NewBuilder()
	var grow func(parent int32, n int)
	grow = func(parent int32, n int) {
		if n == 1 {
			return // parent itself is the leaf
		}
		k := 2 + r.Intn(maxBranch-1)
		if k > n {
			k = n
		}
		// Random composition of n into k positive parts.
		parts := make([]int, k)
		for i := range parts {
			parts[i] = 1
		}
		for extra := n - k; extra > 0; extra-- {
			parts[r.Intn(k)]++
		}
		for _, part := range parts {
			child := b.AddChild(parent)
			grow(child, part)
		}
	}
	grow(0, leaves)
	return b.Build()
}

// zipfDescent draws a leaf by walking down the tree, choosing children with
// Zipf(1) popularity over a per-node random child order. Mass is therefore
// skewed at every level, which is what makes hierarchy ranges interesting.
type zipfDescent struct {
	t *hierarchy.Tree
	// perm[v] fixes each node's child popularity order.
	perm map[int32][]int32
}

func newZipfDescent(r *xmath.SplitMix, t *hierarchy.Tree) *zipfDescent {
	z := &zipfDescent{t: t, perm: make(map[int32][]int32)}
	for v := int32(0); int(v) < t.NumNodes(); v++ {
		kids := t.Children(v)
		if len(kids) == 0 {
			continue
		}
		order := append([]int32(nil), kids...)
		xmath.Shuffle(r, order)
		z.perm[v] = order
	}
	return z
}

func (z *zipfDescent) draw(r *xmath.SplitMix) int32 {
	v := z.t.Root()
	for !z.t.IsLeaf(v) {
		order := z.perm[v]
		total := 0.0
		for i := range order {
			total += 1 / float64(i+1)
		}
		u := r.Float64() * total
		acc := 0.0
		next := order[len(order)-1]
		for i, c := range order {
			acc += 1 / float64(i+1)
			if u <= acc {
				next = c
				break
			}
		}
		v = next
	}
	return v
}

// Tickets generates the synthetic technical-ticket dataset: axes are two
// explicit hierarchies (trouble code, network location); each record has
// weight 1 and duplicates merge into counts.
func Tickets(cfg TicketConfig) (*structure.Dataset, error) {
	cfg = cfg.withDefaults()
	r := xmath.NewRand(cfg.Seed)
	trouble, err := RandomHierarchy(r, cfg.TroubleLeaves, 12)
	if err != nil {
		return nil, err
	}
	location, err := RandomHierarchy(r, cfg.LocationLeaves, 16)
	if err != nil {
		return nil, err
	}
	zt := newZipfDescent(r, trouble)
	zl := newZipfDescent(r, location)
	pts := make([][]uint64, cfg.Tickets)
	ws := make([]float64, cfg.Tickets)
	flat := make([]uint64, 2*cfg.Tickets)
	for i := 0; i < cfg.Tickets; i++ {
		tl := zt.draw(r)
		ll := zl.draw(r)
		pt := flat[2*i : 2*i+2 : 2*i+2]
		pt[0], _ = trouble.LeafPosition(tl)
		pt[1], _ = location.LeafPosition(ll)
		pts[i] = pt
		ws[i] = 1
	}
	axes := []structure.Axis{structure.ExplicitAxis(trouble), structure.ExplicitAxis(location)}
	return structure.NewDataset(axes, pts, ws)
}
