package expt

import (
	"fmt"
	"time"

	"structaware/internal/core"
	"structaware/internal/structure"
	"structaware/internal/workload"
	"structaware/internal/xmath"
)

// The backends comparison (sasbench -backends) builds each family of the
// paper's §6 comparison with BuildSummary, the figures' own constructions,
// at one matched element budget over the evaluation datasets, and scores
// them head-to-head on the same query batteries: accuracy against exact
// answers and query throughput. The result is a JSON document: the repo's
// own cross-family evidence for the paper's central comparison.

// CompareMethods lists the families the comparison builds, in report order:
// the §5 two-pass structure-aware sample, the streaming q-digest, the
// wavelet and the sketch.
var CompareMethods = []string{MAware, MQDigest, MWavelet, MSketch}

// BackendStats is one family's score on one query battery.
type BackendStats struct {
	// Kind is the family's method name (aware, qdigest, wavelet, sketch).
	Kind string `json:"kind"`
	// Elements is the realized summary footprint: at most the requested
	// budget (thresholding and compaction may retain fewer elements),
	// except for the sketch, which keeps at least one counter per row per
	// dyadic level pair and so exceeds budgets below that floor.
	Elements int `json:"elements"`
	// OverBudget marks a row whose Elements exceed the budget.
	OverBudget bool `json:"over_budget,omitempty"`
	// BuildMillis is the construction time for this dataset.
	BuildMillis float64 `json:"build_ms"`
	// MeanRelErr and MaxRelErr are |est−exact|/exact over the battery,
	// excluding queries whose exact answer is zero.
	MeanRelErr float64 `json:"mean_rel_err"`
	MaxRelErr  float64 `json:"max_rel_err"`
	// MeanAbsErr is the paper's accuracy metric: mean |est−exact| divided
	// by the dataset's total weight.
	MeanAbsErr float64 `json:"mean_abs_err"`
	// QueriesPerSec is single-threaded EstimateQuery throughput on this
	// battery.
	QueriesPerSec float64 `json:"queries_per_sec"`
}

// BackendBattery is one query battery's scores across all families.
type BackendBattery struct {
	// Name identifies the battery shape (uniform-area, uniform-weight).
	Name string `json:"name"`
	// Queries is the battery size; Skipped counts queries with exact
	// answer zero, excluded from the relative-error aggregates.
	Queries  int            `json:"queries"`
	Skipped  int            `json:"skipped,omitempty"`
	Backends []BackendStats `json:"backends"`
}

// BackendDataset is one dataset's batteries.
type BackendDataset struct {
	Name        string           `json:"name"`
	Keys        int              `json:"keys"`
	TotalWeight float64          `json:"total_weight"`
	Batteries   []BackendBattery `json:"batteries"`
}

// BackendsReport is the complete head-to-head comparison document.
type BackendsReport struct {
	Size     int              `json:"size"`
	Queries  int              `json:"queries"`
	Scale    float64          `json:"scale"`
	Seed     uint64           `json:"seed"`
	Datasets []BackendDataset `json:"datasets"`
}

// minThroughputWindow is how long the throughput loop keeps replaying the
// battery; short enough to keep -backends interactive, long enough that
// µs-scale queries average over timer noise.
const minThroughputWindow = 50 * time.Millisecond

// CompareBackends runs the head-to-head comparison: every family of
// CompareMethods at the same element budget, over the network and tickets
// datasets, scored on uniform-area and uniform-weight batteries.
func CompareBackends(o Options, size int) (*BackendsReport, error) {
	o = o.defaults()
	rep := &BackendsReport{Size: size, Queries: o.Queries, Scale: o.Scale, Seed: o.Seed}
	for _, src := range []struct {
		name string
		gen  func() (*structure.Dataset, error)
	}{
		{"network", o.network},
		{"tickets", o.tickets},
	} {
		ds, err := src.gen()
		if err != nil {
			return nil, fmt.Errorf("expt: %s dataset: %w", src.name, err)
		}
		dr, err := compareOnDataset(o, ds, src.name, size)
		if err != nil {
			return nil, err
		}
		rep.Datasets = append(rep.Datasets, dr)
	}
	return rep, nil
}

func compareOnDataset(o Options, ds *structure.Dataset, name string, size int) (BackendDataset, error) {
	total := ds.TotalWeight()
	dr := BackendDataset{Name: name, Keys: ds.Len(), TotalWeight: total}

	// Build every family over the identical dataset at the identical
	// budget — the matched-memory premise of the comparison.
	builds := make([]Built, 0, len(CompareMethods))
	for _, m := range CompareMethods {
		b, err := BuildSummary(m, ds, size, o.Seed)
		if err != nil {
			return BackendDataset{}, fmt.Errorf("%w on %s", err, name)
		}
		if sum, ok := b.Summary.(*core.Summary); ok {
			// A sample is scored through the index sasserve serves from,
			// so its throughput is the serving path's; the build time
			// includes compiling it.
			start := time.Now()
			if b.Summary, err = sum.Index(); err != nil {
				return BackendDataset{}, fmt.Errorf("expt: index %s on %s: %w", m, name, err)
			}
			b.BuildTime += time.Since(start)
		}
		builds = append(builds, b)
	}

	batteries, err := backendBatteries(o, ds)
	if err != nil {
		return BackendDataset{}, err
	}
	for _, bat := range batteries {
		exact := workload.ExactAnswers(ds, bat.queries)
		bb := BackendBattery{Name: bat.name, Queries: len(bat.queries)}
		for _, e := range exact {
			if e <= 0 {
				bb.Skipped++
			}
		}
		for _, b := range builds {
			st := scoreBackend(b.Summary, bat.queries, exact, total)
			st.Kind = b.Name
			st.Elements = b.Summary.Size()
			st.OverBudget = st.Elements > size
			st.BuildMillis = float64(b.BuildTime.Microseconds()) / 1e3
			bb.Backends = append(bb.Backends, st)
		}
		dr.Batteries = append(dr.Batteries, bb)
	}
	return dr, nil
}

type namedBattery struct {
	name    string
	queries []structure.Query
}

// backendBatteries generates the two battery shapes of the paper's
// evaluation: uniform-area rectangles and uniform-weight kd cells.
func backendBatteries(o Options, ds *structure.Dataset) ([]namedBattery, error) {
	r := xmath.NewRand(o.Seed + 300)
	area := workload.Battery(o.Queries, func() structure.Query {
		return workload.UniformAreaQuery(ds, 10, 0.25, r)
	})
	out := []namedBattery{{"uniform-area", area}}

	const numRects = 10
	wc, err := workload.NewWeightCells(ds, 12)
	if err != nil {
		return nil, fmt.Errorf("expt: weight cells: %w", err)
	}
	// Mid-depth cells (~10/2^9 ≈ 2% of the weight per query), backing off
	// shallower when the scaled-down dataset has too few cells.
	depth := wc.MaxDepth()
	if depth > 9 {
		depth = 9
	}
	for depth > 0 && len(wc.CellsAt(depth)) < numRects {
		depth--
	}
	if depth > 0 {
		weight := make([]structure.Query, 0, o.Queries)
		for i := 0; i < o.Queries; i++ {
			q, err := wc.QueryAt(depth, numRects, r)
			if err != nil {
				return nil, err
			}
			weight = append(weight, q)
		}
		out = append(out, namedBattery{"uniform-weight", weight})
	}
	return out, nil
}

// scoreBackend answers the battery once for accuracy, then replays it for
// at least minThroughputWindow to measure single-threaded throughput.
func scoreBackend(s Summary, queries []structure.Query, exact []float64, total float64) BackendStats {
	var st BackendStats
	var relSum, absSum xmath.KahanSum
	scored := 0
	for i, q := range queries {
		est := s.EstimateQuery(q)
		d := est - exact[i]
		if d < 0 {
			d = -d
		}
		if total > 0 {
			absSum.Add(d / total)
		}
		if exact[i] <= 0 {
			continue
		}
		rel := d / exact[i]
		relSum.Add(rel)
		if rel > st.MaxRelErr {
			st.MaxRelErr = rel
		}
		scored++
	}
	if scored > 0 {
		st.MeanRelErr = relSum.Sum() / float64(scored)
	}
	if len(queries) > 0 {
		st.MeanAbsErr = absSum.Sum() / float64(len(queries))
	}

	reps, start := 0, time.Now()
	for time.Since(start) < minThroughputWindow {
		for _, q := range queries {
			s.EstimateQuery(q)
		}
		reps++
	}
	if elapsed := time.Since(start); elapsed > 0 && reps > 0 {
		st.QueriesPerSec = float64(reps*len(queries)) / elapsed.Seconds()
	}
	return st
}
