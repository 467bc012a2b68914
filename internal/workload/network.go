// Package workload generates the synthetic datasets and query batteries of
// the experimental study (§6 of Cohen, Cormode, Duffield, VLDB 2011).
//
// The paper evaluates on two proprietary AT&T datasets; this package builds
// synthetic equivalents with the same cardinalities and the structural
// properties the algorithms are sensitive to (heavy-tailed weights,
// hierarchical key locality, two-dimensional product domains):
//
//   - Network: IP-flow-like records over a 2-D bit-trie domain. Sources and
//     destinations cluster into Zipf-popular prefixes ("subnets") and flow
//     volumes are Pareto distributed.
//   - Tickets: trouble-ticket-like records over two explicit hierarchies
//     with varying branching factors; leaf popularity follows a Zipf random
//     descent, so probability mass is skewed at every level of the tree.
//
// Query generators mirror the paper's two batteries: uniform-area rectangle
// collections and uniform-weight collections (cells of a kd partition of the
// full data at a chosen level).
package workload

import (
	"fmt"
	"math"

	"structaware/internal/structure"
	"structaware/internal/xmath"
)

// NetworkConfig parameterizes the Network generator. The defaults (applied
// by Network for zero fields) match the paper's dataset scale: 196K distinct
// src/dst pairs. Bits defaults to 20 per axis — a deliberate substitution
// for the paper's full 2^32 IP space so that the baseline summaries
// (wavelet/sketch, whose cost scales with log X · log Y) stay buildable on a
// laptop; see DESIGN.md §3. Set Bits to 32 to reproduce the full domain with
// sampling-only methods.
type NetworkConfig struct {
	Pairs       int     // target number of flow records before dedup (196000)
	Bits        int     // domain bits per axis (20)
	SrcPrefixes int     // number of source subnets (400)
	DstPrefixes int     // number of destination subnets (320)
	ParetoAlpha float64 // flow volume tail index (1.4)
	Seed        uint64
}

func (c NetworkConfig) withDefaults() NetworkConfig {
	if c.Pairs == 0 {
		c.Pairs = 196000
	}
	if c.Bits == 0 {
		c.Bits = 20
	}
	if c.SrcPrefixes == 0 {
		c.SrcPrefixes = 400
	}
	if c.DstPrefixes == 0 {
		c.DstPrefixes = 320
	}
	if c.ParetoAlpha == 0 {
		c.ParetoAlpha = 1.4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// prefixSet is a Zipf-popular set of address prefixes whose interiors are
// filled by a multiplicative cascade: at every host-bit position the mass
// splits with a prefix-dependent bias, so the address density is skewed at
// every scale (the multifractal character of real IP traffic). A uniform
// interior would make uniform-density estimators (such as q-digest's
// area-proportional allocation) unrealistically accurate.
type prefixSet struct {
	base []uint64 // prefix value shifted into position
	host []int    // number of free host bits
	cum  []float64
	bits int
	seed uint64 // cascade seed: biases are deterministic per prefix
}

func newPrefixSet(r *xmath.SplitMix, count, bits int) *prefixSet {
	ps := &prefixSet{
		base: make([]uint64, count),
		host: make([]int, count),
		cum:  make([]float64, count),
		bits: bits,
		seed: r.Uint64(),
	}
	total := 0.0
	for i := 0; i < count; i++ {
		// Prefix lengths between bits/4 and 3*bits/4: subnets of varying
		// size, nested naturally in the trie.
		plen := bits/4 + r.Intn(bits/2)
		hostBits := bits - plen
		ps.base[i] = (r.Uint64() & ((1 << uint(plen)) - 1)) << uint(hostBits)
		ps.host[i] = hostBits
		total += 1 / float64(i+1) // Zipf(1) popularity
		ps.cum[i] = total
	}
	for i := range ps.cum {
		ps.cum[i] /= total
	}
	return ps
}

// draw picks a subnet by popularity and a cascade-distributed host within
// it.
func (ps *prefixSet) draw(r *xmath.SplitMix) uint64 {
	u := r.Float64()
	lo, hi := 0, len(ps.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if ps.cum[mid] >= u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	addr := ps.base[lo]
	for b := ps.host[lo] - 1; b >= 0; b-- {
		// Bias of the one-branch at this node, deterministic in the prefix
		// above it, in [0.15, 0.85]: skew without starving either side.
		prefix := addr >> uint(b+1)
		h := xmath.Hash64(prefix ^ ps.seed ^ uint64(b)<<56)
		bias := 0.15 + 0.7*float64(h>>11)/(1<<53)
		if r.Float64() < bias {
			addr |= 1 << uint(b)
		}
	}
	return addr
}

// pareto draws a Pareto(alpha) volume with minimum 1, truncated at 1e6.
func pareto(r *xmath.SplitMix, alpha float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	w := math.Pow(1-u, -1/alpha)
	if w > 1e6 {
		w = 1e6
	}
	return w
}

// Network generates the synthetic IP-flow dataset: axes are two bit-trie
// hierarchies (source, destination). Duplicate pairs merge their volumes.
func Network(cfg NetworkConfig) (*structure.Dataset, error) {
	axes, pts, ws, err := NetworkRows(cfg)
	if err != nil {
		return nil, err
	}
	return structure.NewDataset(axes, pts, ws)
}

// NetworkRows generates the flow records Network merges: the two axes, one
// (source, destination) point per record, all cut from one array, and
// each record's volume.
func NetworkRows(cfg NetworkConfig) ([]structure.Axis, [][]uint64, []float64, error) {
	cfg = cfg.withDefaults()
	if cfg.Bits < 4 || cfg.Bits > 32 {
		return nil, nil, nil, fmt.Errorf("workload: network bits %d out of [4,32]", cfg.Bits)
	}
	r := xmath.NewRand(cfg.Seed)
	src := newPrefixSet(r, cfg.SrcPrefixes, cfg.Bits)
	dst := newPrefixSet(r, cfg.DstPrefixes, cfg.Bits)
	pts := make([][]uint64, cfg.Pairs)
	ws := make([]float64, cfg.Pairs)
	flat := make([]uint64, 2*cfg.Pairs)
	for i := 0; i < cfg.Pairs; i++ {
		pt := flat[2*i : 2*i+2 : 2*i+2]
		pt[0] = src.draw(r)
		pt[1] = dst.draw(r)
		pts[i] = pt
		ws[i] = pareto(r, cfg.ParetoAlpha)
	}
	axes := []structure.Axis{structure.BitTrieAxis(cfg.Bits), structure.BitTrieAxis(cfg.Bits)}
	return axes, pts, ws, nil
}
