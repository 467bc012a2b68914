package backend

import (
	"fmt"

	"structaware/internal/core"
	"structaware/internal/ipps"
	"structaware/internal/qdigest"
	"structaware/internal/sketch"
	"structaware/internal/structure"
	"structaware/internal/twopass"
	"structaware/internal/wavelet"
	"structaware/internal/xmath"
)

// DefaultSize is the element budget used when a Config does not set one.
const DefaultSize = 1000

// Config describes how to build a backend of any kind from a weighted-key
// stream. The zero value plus a Kind is usable: defaults are filled by
// Build.
type Config struct {
	// Kind selects the backend family. Required.
	Kind Kind
	// Size is the element budget: sample keys, digest nodes, wavelet
	// coefficients, or sketch counters. Default DefaultSize.
	Size int
	// Seed drives the sample construction and the sketch hashes. Default 1.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Size <= 0 {
		c.Size = DefaultSize
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Build constructs a backend of cfg.Kind over the given key domain from a
// weighted-key stream — the one entry point behind cmd/sasbench -backends.
// Sample backends stream through core.Builder (bounded memory), with the
// structure-aware method and the default reservoir; deterministic backends
// materialize the columns first (they are batch constructions), and the
// sketch takes its default depth. src is consumed from its current
// position; columnar sources feed whole batches.
func Build(axes []structure.Axis, src twopass.Source, cfg Config) (*Backend, error) {
	cfg = cfg.withDefaults()
	if len(axes) == 0 {
		return nil, fmt.Errorf("backend: build needs at least one axis")
	}
	for d, a := range axes {
		if err := a.Validate(); err != nil {
			return nil, fmt.Errorf("backend: axis %d: %w", d, err)
		}
	}
	switch cfg.Kind {
	case KindSample:
		return buildSample(axes, src, cfg)
	case KindQDigest, KindWavelet, KindSketch:
		return buildDeterministic(axes, src, cfg)
	default:
		return nil, fmt.Errorf("backend: unknown kind %q", cfg.Kind)
	}
}

func buildSample(axes []structure.Axis, src twopass.Source, cfg Config) (*Backend, error) {
	b, err := core.NewBuilder(axes, core.Config{Size: cfg.Size, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	if cs, ok := src.(twopass.ColumnSource); ok {
		for {
			coords, weights, err := cs.NextColumns()
			if err != nil {
				return nil, err
			}
			if weights == nil {
				break
			}
			if err := b.PushBatch(coords, weights); err != nil {
				return nil, err
			}
		}
	} else {
		for {
			pt, w, ok, err := src.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			if err := b.Push(pt, w); err != nil {
				return nil, err
			}
		}
	}
	sum, err := b.Finalize()
	if err != nil {
		return nil, err
	}
	idx, err := sum.Index()
	if err != nil {
		return nil, err
	}
	return FromIndexedSummary(idx), nil
}

func buildDeterministic(axes []structure.Axis, src twopass.Source, cfg Config) (*Backend, error) {
	if len(axes) != 2 {
		return nil, fmt.Errorf("backend: %s supports exactly 2 axes, got %d", cfg.Kind, len(axes))
	}
	xs, ys, ws, err := gatherColumns(axes, src)
	if err != nil {
		return nil, err
	}
	bitsX, bitsY := axisBits(axes[0]), axisBits(axes[1])
	switch cfg.Kind {
	case KindQDigest:
		d, err := qdigest.Build2D(xs, ys, ws, bitsX, bitsY, cfg.Size)
		if err != nil {
			return nil, err
		}
		return FromQDigest(d, axes)
	case KindWavelet:
		w, err := wavelet.Build2D(xs, ys, ws, bitsX, bitsY, cfg.Size)
		if err != nil {
			return nil, err
		}
		return FromWavelet(w, axes)
	case KindSketch:
		d, err := sketch.NewDyadic2D(bitsX, bitsY, cfg.Size, 0, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for i := range ws {
			d.Update(xs[i], ys[i], ws[i])
		}
		return FromSketch(d, axes)
	default:
		return nil, fmt.Errorf("backend: %s is not a deterministic kind", cfg.Kind)
	}
}

// axisBits returns the summary grid width for an axis: its declared bits,
// or the smallest power-of-two cover of an explicit hierarchy's leaves.
func axisBits(a structure.Axis) int {
	if a.Kind != structure.Explicit {
		return a.Bits
	}
	return max(1, xmath.Log2Ceil(a.DomainSize()))
}

// gatherColumns drains a 2-D source into owned column slices, validating
// coordinates against the domain and weights against the IPPS rules.
// Columnar batches are copied (NextColumns may alias the source's backing
// store).
func gatherColumns(axes []structure.Axis, src twopass.Source) (xs, ys []uint64, ws []float64, err error) {
	check := func(x, y uint64, w float64) error {
		if x >= axes[0].DomainSize() || y >= axes[1].DomainSize() {
			return fmt.Errorf("backend: coordinate (%d,%d) out of domain", x, y)
		}
		return ipps.ValidateWeight(w)
	}
	if cs, ok := src.(twopass.ColumnSource); ok {
		for {
			coords, weights, err := cs.NextColumns()
			if err != nil {
				return nil, nil, nil, err
			}
			if weights == nil {
				break
			}
			if len(coords) != 2 {
				return nil, nil, nil, fmt.Errorf("backend: batch has %d columns, want 2", len(coords))
			}
			for i, w := range weights {
				if err := check(coords[0][i], coords[1][i], w); err != nil {
					return nil, nil, nil, err
				}
			}
			xs = append(xs, coords[0]...)
			ys = append(ys, coords[1]...)
			ws = append(ws, weights...)
		}
		return xs, ys, ws, nil
	}
	for {
		pt, w, ok, err := src.Next()
		if err != nil {
			return nil, nil, nil, err
		}
		if !ok {
			break
		}
		if len(pt) != 2 {
			return nil, nil, nil, fmt.Errorf("backend: point has %d dims, want 2", len(pt))
		}
		if err := check(pt[0], pt[1], w); err != nil {
			return nil, nil, nil, err
		}
		xs, ys, ws = append(xs, pt[0]), append(ys, pt[1]), append(ws, w)
	}
	return xs, ys, ws, nil
}
