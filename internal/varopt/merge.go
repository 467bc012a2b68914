package varopt

import (
	"fmt"

	"structaware/internal/ipps"
)

// Shard is one mergeable VarOpt sample: the items it retained (with their
// original weights, Index being a caller-global identifier) and the IPPS
// threshold it was drawn with. Shards are produced independently over
// disjoint slices of a population — by worker goroutines, by separate
// machines, or by separate time windows — and combined with
// engine.MergeClose (see MergeThreshold).
type Shard struct {
	Items []StreamItem
	Tau   float64
}

// MergeThreshold is the threshold step of merging VarOpt samples drawn
// over pairwise-disjoint populations into a single sample of size exactly
// min(s, union size), with one IPPS threshold valid for every retained
// item. engine.MergeClose runs the whole merge: it closes the candidate
// probabilities this threshold defines with the shared closing pass.
//
// The merge re-samples the union of the shards' Horvitz–Thompson adjusted
// weights a_i = max(w_i, Tau_j): a fresh threshold τ' solving
// Σ min(1, a_i/τ') = s is computed over the union. An item's overall
// inclusion probability is then min(1, w_i/Tau_j)·min(1, a_i/τ') and its HT
// adjusted weight max(w_i, Tau_j, τ'), so subset-sum estimates from the
// merged sample stay unbiased.
//
// Returning a single threshold requires τ' to dominate every shard
// threshold. That holds whenever each shard with Tau_j > 0 was drawn with
// target size ≥ s (a full shard contributes ≥ s expected samples at its own
// threshold, so the union's threshold can only be higher); violating the
// precondition is reported as an error rather than silently biasing
// estimates, and an ULP-level tie snaps to the shard threshold (the exact
// one).
//
// MergeThreshold returns the union's adjusted weights in shard-then-item
// order and the merged threshold; keepAll reports that the union already
// fits in s, in which case the returned threshold is the max shard
// threshold and every item is kept verbatim.
func MergeThreshold(shards []Shard, s int) (adj []float64, tau float64, keepAll bool, err error) {
	if s <= 0 {
		return nil, 0, false, ipps.ErrBadSize
	}
	var maxTau float64
	for _, sh := range shards {
		if sh.Tau > maxTau {
			maxTau = sh.Tau
		}
		for _, it := range sh.Items {
			adj = append(adj, ipps.AdjustedWeight(it.Weight, sh.Tau))
		}
	}
	if len(adj) == 0 {
		return nil, 0, false, ErrEmpty
	}
	tau, err = ipps.Threshold(adj, s)
	if err != nil {
		return nil, 0, false, err
	}
	if tau == 0 {
		// The union fits in s. With the size precondition honored, a shard
		// threshold can be positive here only when that shard contributed
		// the entire union, so max-ing the shard thresholds stays per-item
		// exact — enforce it rather than silently inflating the adjusted
		// weights of items from lower-threshold shards.
		if maxTau > 0 {
			for _, sh := range shards {
				if len(sh.Items) > 0 && sh.Tau != maxTau {
					return nil, 0, false, fmt.Errorf(
						"varopt: union fits in %d but shard thresholds differ (%v vs %v); draw shards with target size >= %d",
						s, sh.Tau, maxTau, s)
				}
			}
		}
		return adj, maxTau, true, nil
	}
	if tau < maxTau*(1-1e-9) {
		return nil, 0, false, fmt.Errorf(
			"varopt: merged threshold %v below shard threshold %v; draw shards with target size >= %d",
			tau, maxTau, s)
	}
	if tau < maxTau {
		tau = maxTau
	}
	return adj, tau, false, nil
}
