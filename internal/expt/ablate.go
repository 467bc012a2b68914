package expt

import (
	"fmt"

	"structaware/internal/core"
	"structaware/internal/structure"
	"structaware/internal/twopass"
	"structaware/internal/workload"
	"structaware/internal/xmath"
)

// Ablation experiments for the design choices DESIGN.md calls out. They are
// registered alongside the figure runners (ids a1..a3).

func init() {
	Runners["a1"] = A1
	Runners["a2"] = A2
	Runners["a3"] = A3
	Runners["a4"] = A4
}

// A1 — two-pass oversample factor: the paper sets s′ = 5s and notes that
// "increasing the factor did not significantly improve the accuracy".
// Sweep the factor and measure.
func A1(o Options) error {
	o = o.defaults()
	ds, err := workload.Network(workload.NetworkConfig{Pairs: scaleInt(98000, o.Scale, 4000), Seed: o.Seed})
	if err != nil {
		return err
	}
	r := xmath.NewRand(o.Seed + 700)
	queries := workload.Battery(o.Queries, func() structure.Query {
		return workload.UniformAreaQuery(ds, 25, 0.25, r)
	})
	exact := workload.ExactAnswers(ds, queries)
	total := ds.TotalWeight()
	s := 2000
	if s > ds.Len()/4 {
		s = ds.Len() / 4
	}
	fmt.Fprintf(o.Out, "# a1: two-pass oversample factor ablation (s=%d, 25-range uniform-area queries)\n", s)
	fmt.Fprintln(o.Out, "# factor\terror\tguide\tcells")
	for _, factor := range []int{1, 2, 5, 10, 20} {
		var acc float64
		var guide, cells int
		const reps = 3
		for k := 0; k < reps; k++ {
			res, err := twopass.Product(&twopass.DatasetSource{DS: ds}, ds.Axes, s, twopass.Config{Oversample: factor}, xmath.NewRand(o.Seed+uint64(31*k+factor)))
			if err != nil {
				return err
			}
			guide, cells = res.GuideSize, res.Cells
			sum := &core.Summary{Axes: ds.Axes, Coords: res.Coords, Weights: res.Weights, Tau: res.Tau, Method: core.AwareTwoPass}
			acc += MeanAbsError(sum, queries, exact, total)
		}
		fmt.Fprintf(o.Out, "%d\t%.6g\t%d\t%d\n", factor, acc/reps, guide, cells)
	}
	return nil
}

// A2 — sampling-method ablation: all five sampling schemes (main-memory
// aware, two-pass aware, oblivious, Poisson, systematic) on the same range
// battery. Systematic shows that a low-discrepancy non-VarOpt scheme is
// competitive on ranges; Poisson shows the price of variable sample size.
func A2(o Options) error {
	o = o.defaults()
	ds, err := workload.Network(workload.NetworkConfig{Pairs: scaleInt(98000, o.Scale, 4000), Seed: o.Seed})
	if err != nil {
		return err
	}
	r := xmath.NewRand(o.Seed + 800)
	queries := workload.Battery(o.Queries, func() structure.Query {
		return workload.UniformAreaQuery(ds, 10, 0.25, r)
	})
	exact := workload.ExactAnswers(ds, queries)
	total := ds.TotalWeight()
	methods := []string{MAwareMM, MAware, MObliv, MPoisson, MSystematic}
	fmt.Fprintln(o.Out, "# a2: sampling scheme ablation, 10-range uniform-area queries")
	fmt.Fprintf(o.Out, "# size")
	for _, m := range methods {
		fmt.Fprintf(o.Out, "\t%s", m)
	}
	fmt.Fprintln(o.Out)
	for _, size := range []int{300, 1000, 3000} {
		if size > ds.Len()/4 {
			break
		}
		fmt.Fprintf(o.Out, "%d", size)
		for _, m := range methods {
			var acc float64
			const reps = 3
			for k := 0; k < reps; k++ {
				b, err := BuildSummary(m, ds, size, o.Seed+uint64(13*k+len(m)))
				if err != nil {
					return err
				}
				acc += MeanAbsError(b.Summary, queries, exact, total)
			}
			fmt.Fprintf(o.Out, "\t%.6g", acc/reps)
		}
		fmt.Fprintln(o.Out)
	}
	return nil
}

// A4 — q-digest build strategy: the faithful streaming per-item insertion
// (what the paper's cost figures measure) vs this repository's optimized
// z-order batch constructor. Same summary family; the batch build is an
// engineering improvement whose accuracy class matches.
func A4(o Options) error {
	o = o.defaults()
	ds, err := workload.Network(workload.NetworkConfig{Pairs: scaleInt(98000, o.Scale, 4000), Seed: o.Seed})
	if err != nil {
		return err
	}
	r := xmath.NewRand(o.Seed + 950)
	queries := workload.Battery(o.Queries, func() structure.Query {
		return workload.UniformAreaQuery(ds, 10, 0.25, r)
	})
	exact := workload.ExactAnswers(ds, queries)
	total := ds.TotalWeight()
	fmt.Fprintln(o.Out, "# a4: q-digest build strategy — streaming insertion (paper) vs z-order batch (optimized)")
	fmt.Fprintln(o.Out, "# size\tstream_items_per_s\tbatch_items_per_s\tstream_err\tbatch_err")
	for _, size := range []int{300, 1000, 3000} {
		bs, err := BuildSummary(MQDigest, ds, size, o.Seed)
		if err != nil {
			return err
		}
		bb, err := BuildSummary(MQDigestBatch, ds, size, o.Seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "%d\t%.6g\t%.6g\t%.6g\t%.6g\n", size,
			float64(ds.Len())/bs.BuildTime.Seconds(),
			float64(ds.Len())/bb.BuildTime.Seconds(),
			MeanAbsError(bs.Summary, queries, exact, total),
			MeanAbsError(bb.Summary, queries, exact, total))
	}
	return nil
}

// A3 — wavelet query strategy: the O(s) coefficient scan vs the paper's
// dyadic reconstruction, demonstrating they agree numerically while
// differing hugely in cost (the basis of the Fig. 3c gap).
func A3(o Options) error {
	o = o.defaults()
	ds, err := workload.Network(workload.NetworkConfig{Pairs: scaleInt(49000, o.Scale, 4000), Seed: o.Seed})
	if err != nil {
		return err
	}
	b, err := BuildSummary(MWavelet, ds, 2700, o.Seed)
	if err != nil {
		return err
	}
	w := b.Summary.(interface {
		EstimateRange(structure.Range) float64
		EstimateRangeDyadic(structure.Range) float64
	})
	r := xmath.NewRand(o.Seed + 900)
	fmt.Fprintln(o.Out, "# a3: wavelet query strategies agree numerically (fast coefficient scan vs dyadic reconstruction)")
	fmt.Fprintln(o.Out, "# query\tfast\tdyadic\tdelta")
	worst := 0.0
	for q := 0; q < 20; q++ {
		box := workload.UniformAreaQuery(ds, 1, 0.3, r)[0]
		fast := w.EstimateRange(box)
		dy := w.EstimateRangeDyadic(box)
		d := fast - dy
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
		fmt.Fprintf(o.Out, "%d\t%.6g\t%.6g\t%.3g\n", q, fast, dy, d)
	}
	if worst > 1e-3*(1+ds.TotalWeight()) {
		return fmt.Errorf("a3: strategies disagree by %v", worst)
	}
	return nil
}
