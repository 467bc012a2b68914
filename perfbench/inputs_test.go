package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"structaware/internal/xmath"
)

func TestOracleMatchesBruteForce(t *testing.T) {
	ds, err := networkKeys(3*frameKeys, 9)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := newKeyPool(ds)
	if err != nil {
		t.Fatal(err)
	}
	r := xmath.NewRand(3)
	count := make([]int64, len(pool.frames))
	for f := range count {
		count[f] = int64(r.Intn(4))
	}
	orc := newOracle(pool, count)
	qs := newQueries(5)
	for j, box := range qs.boxes[:300] {
		want := 0.0
		for i := 0; i < len(pool.frames)*frameKeys; i++ {
			if ds.InRange(i, box) {
				want += ds.Weights[i] * float64(count[i/frameKeys])
			}
		}
		if got := orc.rangeSum(box); math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("box %d %s: oracle %v, brute force %v", j, qs.texts[j], got, want)
		}
	}
}

func TestKeyPoolFramesCoverWholeFrames(t *testing.T) {
	ds, err := networkKeys(2*frameKeys+100, 4)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := newKeyPool(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.frames) != ds.Len()/frameKeys {
		t.Errorf("%d frames from %d keys", len(pool.frames), ds.Len())
	}
	sum := 0.0
	for _, w := range ds.Weights[:frameKeys] {
		sum += w
	}
	if pool.frameWeight[0] != sum {
		t.Errorf("frame 0 weight %v, want %v", pool.frameWeight[0], sum)
	}
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalog %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the catalog %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
}
