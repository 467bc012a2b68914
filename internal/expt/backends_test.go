package expt

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"structaware/internal/structure"
	"structaware/internal/workload"
	"structaware/internal/xmath"
)

// TestCompareBackendsSmallScale runs the head-to-head comparison behind
// sasbench -backends at a small scale: every family on both datasets and
// both batteries, flagged over budget exactly when it keeps more elements
// than the budget, with finite errors and a measured throughput, in a
// report that survives a JSON round trip.
func TestCompareBackendsSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("the backends comparison builds every backend kind per dataset")
	}
	const budget = 200
	var buf bytes.Buffer
	o := quickOpts(&buf)
	o.Scale = 0.01
	rep, err := CompareBackends(o, budget)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Size != budget || len(rep.Datasets) != 2 {
		t.Fatalf("report has size %d and %d datasets, want %d and 2", rep.Size, len(rep.Datasets), budget)
	}
	for i, name := range []string{"network", "tickets"} {
		ds := rep.Datasets[i]
		if ds.Name != name || ds.Keys <= 0 || !(ds.TotalWeight > 0) {
			t.Fatalf("dataset %d: %q with %d keys and total %v", i, ds.Name, ds.Keys, ds.TotalWeight)
		}
		if len(ds.Batteries) != 2 {
			t.Fatalf("%s: %d batteries, want uniform-area and uniform-weight", name, len(ds.Batteries))
		}
		for _, bat := range ds.Batteries {
			if bat.Queries != o.Queries || len(bat.Backends) != len(CompareMethods) {
				t.Fatalf("%s/%s: %d queries, %d backends", name, bat.Name, bat.Queries, len(bat.Backends))
			}
			for k, st := range bat.Backends {
				where := name + "/" + bat.Name + "/" + st.Kind
				if st.Kind != CompareMethods[k] {
					t.Errorf("%s: row %d is %q, want %q", where, k, st.Kind, CompareMethods[k])
				}
				if st.Elements <= 0 {
					t.Errorf("%s: %d elements", where, st.Elements)
				}
				if st.OverBudget != (st.Elements > budget) {
					t.Errorf("%s: over_budget %v with %d elements against budget %d", where, st.OverBudget, st.Elements, budget)
				}
				for _, e := range []float64{st.MeanRelErr, st.MaxRelErr, st.MeanAbsErr} {
					if math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
						t.Errorf("%s: error %v is not finite and non-negative", where, e)
					}
				}
				if !(st.QueriesPerSec > 0) {
					t.Errorf("%s: %v queries/s", where, st.QueriesPerSec)
				}
			}
		}
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back BackendsReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, rep) {
		t.Fatalf("report changed in a JSON round trip:\n%s", raw)
	}
}

// TestAccuracyRegression pins each family's mean relative error on a
// seeded netflow uniform-area battery, so an accuracy regression in any
// summary family fails loudly. Ceilings are ~2x the observed error or more
// — headroom for platform float variation, not for regressions.
func TestAccuracyRegression(t *testing.T) {
	ds, err := workload.Network(workload.NetworkConfig{Pairs: 4000, Bits: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r := xmath.NewRand(11)
	queries := make([]structure.Query, 40)
	for i := range queries {
		queries[i] = workload.UniformAreaQuery(ds, 10, 0.25, r)
	}
	exact := workload.ExactAnswers(ds, queries)

	// Observed: aware 0.0345, qdigest 0.0783, wavelet 0.0315, sketch 3.82.
	// The sketch is honest about its regime: 800 counters over 13x13
	// dyadic level pairs leaves one column per Count-Sketch, so its
	// estimates are noise-dominated at this budget — pinned as such.
	ceilings := map[string]float64{
		MAware:   0.15,
		MQDigest: 0.25,
		MWavelet: 0.20,
		MSketch:  8.0,
	}
	for _, m := range CompareMethods {
		b, err := BuildSummary(m, ds, 800, 3)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		var n int
		for i, q := range queries {
			if exact[i] == 0 {
				continue
			}
			sum += math.Abs(b.Summary.EstimateQuery(q)-exact[i]) / exact[i]
			n++
		}
		if n == 0 {
			t.Fatal("battery produced no non-zero queries")
		}
		mre := sum / float64(n)
		t.Logf("%s: mean relative error %.4f over %d queries (size %d)", m, mre, n, b.Summary.Size())
		if mre > ceilings[m] {
			t.Errorf("%s: mean relative error %.4f exceeds ceiling %.2f", m, mre, ceilings[m])
		}
	}
}
