// Package core is the top of the sampling stack: it orchestrates IPPS
// threshold computation, the structure-aware (and baseline) VarOpt
// summarization schemes, and packages the result as a queryable sample-based
// summary with Horvitz–Thompson estimation.
//
// This is the layer a user of the library interacts with (re-exported by the
// root package structaware): pick a Method, a sample size, and Build a
// Summary from a Dataset. The Summary answers range-sum, multi-range and
// arbitrary subset-sum queries unbiasedly, and also returns representative
// sampled keys — the flexibility benefits of sampling the paper argues for.
package core

import (
	"errors"
	"fmt"

	"structaware/internal/engine"
	"structaware/internal/ipps"
	"structaware/internal/structure"
	"structaware/internal/twopass"
	"structaware/internal/varopt"
	"structaware/internal/xmath"
)

// Method selects the sampling scheme.
type Method int

const (
	// Aware is the paper's main contribution: main-memory structure-aware
	// VarOpt sampling. One-dimensional datasets use the hierarchy (∆ < 1) or
	// order (∆ < 2) summarizer depending on the axis kind; multi-dimensional
	// datasets use KD-HIERARCHY (§4).
	Aware Method = iota
	// AwareTwoPass is the I/O-efficient two-pass construction of §5.
	AwareTwoPass
	// Oblivious is structure-oblivious VarOpt (the "obliv" baseline).
	Oblivious
	// Poisson is independent IPPS sampling (random sample size).
	Poisson
	// Systematic is order-based systematic sampling: ∆ < 1 on intervals but
	// not VarOpt (no Chernoff bounds on arbitrary subsets); an ablation.
	Systematic
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Aware:
		return "aware"
	case AwareTwoPass:
		return "aware2p"
	case Oblivious:
		return "obliv"
	case Poisson:
		return "poisson"
	case Systematic:
		return "systematic"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Config configures Build and NewBuilder.
type Config struct {
	// Size is the target sample size s (exact for VarOpt methods).
	Size int
	// Method selects the scheme; the zero value is Aware.
	Method Method
	// Oversample sets the two-pass guide-sample factor and the streaming
	// Builder's default buffer multiple (default 5).
	Oversample int
	// Seed makes the construction deterministic; 0 means seed 1.
	Seed uint64
	// Buffer bounds the streaming Builder's working memory: the number of
	// candidate keys its reservoir retains during ingestion. 0 means
	// Oversample×Size; explicit values below Size are rejected (the
	// reservoir must be at least the target size for the final merge to
	// preserve unbiasedness). Build ignores it — the dataset-backed path
	// closes over the full dataset.
	Buffer int
}

func (c Config) rand() *xmath.SplitMix {
	seed := c.Seed
	if seed == 0 {
		seed = 1
	}
	return xmath.NewRand(seed)
}

// Summary is a sample-based summary: sampled keys with original and HT
// adjusted weights. It is self-contained (does not reference the source
// dataset), so it can outlive the data, be serialized, and be queried
// directly — the workflow of the paper's introduction.
type Summary struct {
	// Axes describes the key domain (shared with the source dataset).
	Axes []structure.Axis
	// Coords[d][k] is sampled key k's coordinate on axis d.
	Coords [][]uint64
	// Weights[k] is the original weight of sampled key k.
	Weights []float64
	// Tau is the IPPS threshold; the adjusted weight of key k is
	// max(Weights[k], Tau).
	Tau float64
	// Method records how the summary was built.
	Method Method
}

// ErrNoData is returned when the dataset has no positive-weight keys.
var ErrNoData = errors.New("core: dataset has no positive-weight keys")

// Build draws a sample summary from the dataset according to cfg. It is a
// thin driver over the shared pipeline: dataset rows are the (already
// materialized) ingestion output, and the structure-aware closing pass of
// internal/engine — the same one the parallel merge and the streaming
// Builder finish with — settles the candidate probabilities.
func Build(ds *structure.Dataset, cfg Config) (*Summary, error) {
	if cfg.Size <= 0 {
		return nil, ipps.ErrBadSize
	}
	if ds.Len() == 0 {
		return nil, ErrNoData
	}
	r := cfg.rand()
	switch cfg.Method {
	case Poisson:
		sm, err := varopt.Poisson(ds.Weights, cfg.Size, r)
		if err != nil {
			return nil, mapErr(err)
		}
		return fromIndices(ds, sm.Indices, sm.Tau, cfg.Method), nil
	case AwareTwoPass:
		res, err := buildTwoPass(ds, cfg, r)
		if err != nil {
			return nil, mapErr(err)
		}
		return &Summary{Axes: ds.Axes, Coords: res.Coords, Weights: res.Weights, Tau: res.Tau, Method: cfg.Method}, nil
	case Aware, Oblivious, Systematic:
		kept, tau, err := engine.Close(ds, nil, make([]float64, ds.Len()), cfg.Size, closeMode(cfg.Method), r, engine.NewArena())
		if err != nil {
			return nil, mapErr(err)
		}
		if len(kept) == 0 {
			return nil, ErrNoData
		}
		return fromIndices(ds, kept, tau, cfg.Method), nil
	default:
		return nil, fmt.Errorf("core: unknown method %v", cfg.Method)
	}
}

// closeMode maps a Method to the shared pipeline's closing-pass selector.
func closeMode(m Method) engine.CloseMode {
	switch m {
	case Oblivious:
		return engine.CloseOblivious
	case Systematic:
		return engine.CloseSystematic
	default:
		return engine.CloseAware
	}
}

// SampleParallel draws the summary with the sharded worker-pool pipeline of
// internal/engine: the dataset is partitioned into `workers` contiguous
// shards, each shard draws an independent VarOpt sample of target size
// cfg.Size in its own goroutine, and the shard samples are merged into one
// exact-size-s sample by re-sampling the union of their Horvitz–Thompson
// adjusted weights, closing the merged candidates with the same
// structure-aware pass Build uses. Estimates from the result are unbiased
// for arbitrary subset sums, exactly as with Build.
//
// workers <= 0 uses all available CPUs; workers == 1 is identical to Build.
// Only Aware and Oblivious have a parallel pipeline; the remaining methods
// (Poisson, AwareTwoPass, Systematic) fall back to the serial Build path.
// Runs are deterministic in (cfg, workers) — goroutine scheduling does not
// affect the sample.
func SampleParallel(ds *structure.Dataset, cfg Config, workers int) (*Summary, error) {
	if cfg.Size <= 0 {
		return nil, ipps.ErrBadSize
	}
	if ds.Len() == 0 {
		return nil, ErrNoData
	}
	if workers == 1 || (cfg.Method != Aware && cfg.Method != Oblivious) {
		return Build(ds, cfg)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	res, err := engine.Run(ds, engine.Config{
		Size:      cfg.Size,
		Workers:   workers,
		Seed:      seed,
		Oblivious: cfg.Method == Oblivious,
	})
	if err != nil {
		return nil, mapErr(err)
	}
	return fromIndices(ds, res.Indices, res.Tau, cfg.Method), nil
}

func mapErr(err error) error {
	if errors.Is(err, varopt.ErrEmpty) {
		return ErrNoData
	}
	return err
}

// buildTwoPass runs the out-of-core §5 construction over the dataset's
// columns, read in place through a zero-copy source.
func buildTwoPass(ds *structure.Dataset, cfg Config, r *xmath.SplitMix) (*twopass.Result, error) {
	src := &twopass.DatasetSource{DS: ds}
	tc := twopass.Config{Oversample: cfg.Oversample}
	if ds.Dims() == 1 {
		if ds.Axes[0].Kind == structure.Explicit {
			// §5's ancestor partition: ∆ < 1 w.h.p. on hierarchy nodes,
			// strictly better than linearizing to an order (∆ < 2).
			return twopass.Hierarchy(src, ds.Axes, 0, cfg.Size, tc, r)
		}
		return twopass.Order(src, ds.Axes, 0, cfg.Size, tc, r)
	}
	return twopass.Product(src, ds.Axes, cfg.Size, tc, r)
}

// fromIndices materializes a Summary from sampled dataset indices.
func fromIndices(ds *structure.Dataset, indices []int, tau float64, m Method) *Summary {
	s := &Summary{
		Axes:    ds.Axes,
		Coords:  make([][]uint64, ds.Dims()),
		Weights: make([]float64, len(indices)),
		Tau:     tau,
		Method:  m,
	}
	for d := range s.Coords {
		s.Coords[d] = make([]uint64, len(indices))
	}
	for k, i := range indices {
		for d := range s.Coords {
			s.Coords[d][k] = ds.Coords[d][i]
		}
		s.Weights[k] = ds.Weights[i]
	}
	return s
}

// Size returns the number of sampled keys.
func (s *Summary) Size() int { return len(s.Weights) }

// AdjustedWeight returns the HT adjusted weight of sampled key k.
func (s *Summary) AdjustedWeight(k int) float64 {
	return ipps.AdjustedWeight(s.Weights[k], s.Tau)
}

// EstimateTotal returns the unbiased estimate of the total weight.
func (s *Summary) EstimateTotal() float64 {
	var sum xmath.KahanSum
	for k := range s.Weights {
		sum.Add(s.AdjustedWeight(k))
	}
	return sum.Sum()
}

// inRange reports whether sampled key k lies in the box r.
func (s *Summary) inRange(k int, r structure.Range) bool {
	for d, iv := range r {
		if !iv.Contains(s.Coords[d][k]) {
			return false
		}
	}
	return true
}

// EstimateRange returns the unbiased HT estimate of the weight in box r, by
// scanning the sample — the paper's query procedure ("we just compute the
// intersection of the sample with each query rectangle").
func (s *Summary) EstimateRange(r structure.Range) float64 {
	var sum xmath.KahanSum
	for k := range s.Weights {
		if s.inRange(k, r) {
			sum.Add(s.AdjustedWeight(k))
		}
	}
	return sum.Sum()
}

// EstimateQuery returns the unbiased estimate over a multi-range query
// (disjoint boxes).
func (s *Summary) EstimateQuery(q structure.Query) float64 {
	var sum xmath.KahanSum
	for k := range s.Weights {
		for _, r := range q {
			if s.inRange(k, r) {
				sum.Add(s.AdjustedWeight(k))
				break
			}
		}
	}
	return sum.Sum()
}

// EstimateSubset returns the unbiased estimate of the weight of an arbitrary
// key subset, given as a membership predicate over key coordinates. This is
// the "arbitrary subset-sum" flexibility that dedicated summaries lack.
func (s *Summary) EstimateSubset(member func(pt []uint64) bool) float64 {
	var sum xmath.KahanSum
	buf := make([]uint64, len(s.Axes))
	for k := range s.Weights {
		for d := range s.Coords {
			buf[d] = s.Coords[d][k]
		}
		if member(buf) {
			sum.Add(s.AdjustedWeight(k))
		}
	}
	return sum.Sum()
}

// RepresentativeKeys returns the sampled keys inside box r (up to limit;
// limit <= 0 means all), with their adjusted weights: a representative
// sample of the selected subpopulation.
func (s *Summary) RepresentativeKeys(r structure.Range, limit int) ([][]uint64, []float64) {
	var keys [][]uint64
	var ws []float64
	for k := range s.Weights {
		if !s.inRange(k, r) {
			continue
		}
		pt := make([]uint64, len(s.Axes))
		for d := range s.Coords {
			pt[d] = s.Coords[d][k]
		}
		keys = append(keys, pt)
		ws = append(ws, s.AdjustedWeight(k))
		if limit > 0 && len(keys) >= limit {
			break
		}
	}
	return keys, ws
}
