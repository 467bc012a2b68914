package expt

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"structaware/internal/backend"
	"structaware/internal/structure"
)

// TestCompareBackendsSmallScale runs the head-to-head comparison behind
// sasbench -backends at a small scale: every backend kind on both datasets
// and both batteries, within the element budget, with finite errors and a
// measured throughput, in a report that survives a JSON round trip. The
// sketch keeps at least one counter per row per dyadic level pair, so on a
// fine grid it exceeds a small budget by exactly that floor.
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
	for i, src := range []struct {
		name string
		gen  func() (*structure.Dataset, error)
	}{{"network", o.network}, {"tickets", o.tickets}} {
		name, ds := src.name, rep.Datasets[i]
		data, err := src.gen()
		if err != nil {
			t.Fatal(err)
		}
		// One counter in each of the sketch's 5 default rows for every
		// (lx, ly) dyadic level pair of the dataset's grid.
		sketchFloor := (axisBits(data, 0) + 1) * (axisBits(data, 1) + 1) * 5
		if ds.Name != name || ds.Keys <= 0 || !(ds.TotalWeight > 0) {
			t.Fatalf("dataset %d: %q with %d keys and total %v", i, ds.Name, ds.Keys, ds.TotalWeight)
		}
		if len(ds.Batteries) != 2 {
			t.Fatalf("%s: %d batteries, want uniform-area and uniform-weight", name, len(ds.Batteries))
		}
		for _, bat := range ds.Batteries {
			if bat.Queries != o.Queries || len(bat.Backends) != len(backend.Kinds) {
				t.Fatalf("%s/%s: %d queries, %d backends", name, bat.Name, bat.Queries, len(bat.Backends))
			}
			for k, st := range bat.Backends {
				where := name + "/" + bat.Name + "/" + st.Kind
				if st.Kind != string(backend.Kinds[k]) {
					t.Errorf("%s: backend %d is %q, want %q", where, k, st.Kind, backend.Kinds[k])
				}
				limit := budget
				if st.Kind == string(backend.KindSketch) {
					limit = max(budget, sketchFloor)
				}
				if st.Elements <= 0 || st.Elements > limit {
					t.Errorf("%s: %d elements, limit %d (budget %d)", where, st.Elements, limit, budget)
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
