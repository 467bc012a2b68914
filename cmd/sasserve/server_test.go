package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"structaware/internal/bounds"
	"structaware/internal/core"
	"structaware/internal/structure"
	"structaware/internal/workload"
	"structaware/internal/xmath"
)

// testKeys draws the deterministic weighted keys behind buildSummary:
// 3,000 uniform points on a 1024×1024 grid with weights in [1, 11).
func testKeys(seed uint64) ([][]uint64, []float64) {
	r := xmath.NewRand(seed)
	n := 3000
	pts := make([][]uint64, n)
	ws := make([]float64, n)
	for i := range pts {
		pts[i] = []uint64{r.Uint64() % 1024, r.Uint64() % 1024}
		ws[i] = 1 + 10*r.Float64()
	}
	return pts, ws
}

// buildSummary draws a deterministic 2-D test summary.
func buildSummary(t testing.TB, seed uint64) *core.Summary {
	t.Helper()
	axes := []structure.Axis{structure.BitTrieAxis(10), structure.BitTrieAxis(10)}
	pts, ws := testKeys(seed)
	ds, err := structure.NewDataset(axes, pts, ws)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := core.Build(ds, core.Config{Size: 400, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func writeSummary(t testing.TB, path string, sum *core.Summary) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sum.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// testServer loads the given summary under name "net" and returns the
// httptest server plus the store (for reload tests).
func testServer(t *testing.T, sum *core.Summary) (*httptest.Server, *store, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "net.sas")
	writeSummary(t, path, sum)
	st := newStore([]serveSource{{name: "net", path: path}}, t.Logf)
	if err := st.loadAll(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(st.handler())
	t.Cleanup(srv.Close)
	return srv, st, path
}

func getJSON(t *testing.T, url string, wantStatus int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
}

func TestHealthAndMetadata(t *testing.T) {
	sum := buildSummary(t, 1)
	srv, _, _ := testServer(t, sum)

	var health struct {
		Status    string `json:"status"`
		Summaries int    `json:"summaries"`
	}
	getJSON(t, srv.URL+"/healthz", http.StatusOK, &health)
	if health.Status != "ok" || health.Summaries != 1 {
		t.Fatalf("health %+v", health)
	}

	var list struct {
		Summaries []summaryMeta `json:"summaries"`
	}
	getJSON(t, srv.URL+"/v1/summaries", http.StatusOK, &list)
	if len(list.Summaries) != 1 || list.Summaries[0].Name != "net" {
		t.Fatalf("list %+v", list)
	}

	var meta summaryMeta
	getJSON(t, srv.URL+"/v1/summaries/net", http.StatusOK, &meta)
	if meta.Size != sum.Size() || meta.Dims != 2 || meta.Method != "aware" {
		t.Fatalf("meta %+v", meta)
	}
	if math.Float64bits(meta.TotalEstimate) != math.Float64bits(sum.EstimateTotal()) {
		t.Fatalf("meta total %v, want %v", meta.TotalEstimate, sum.EstimateTotal())
	}
	if len(meta.Axes) != 2 || meta.Axes[0].Kind != "bittrie" || meta.Axes[0].DomainSize != 1024 {
		t.Fatalf("axes %+v", meta.Axes)
	}

	getJSON(t, srv.URL+"/v1/summaries/nosuch", http.StatusNotFound, nil)
}

func TestEstimateEndpoints(t *testing.T) {
	sum := buildSummary(t, 2)
	srv, _, _ := testServer(t, sum)

	box := structure.Range{{Lo: 0, Hi: 511}, {Lo: 256, Hi: 767}}
	var got estimateResponse
	getJSON(t, srv.URL+"/v1/summaries/net/estimate?range="+box.String(), http.StatusOK, &got)
	if len(got.Estimates) != 1 {
		t.Fatalf("estimates %v", got.Estimates)
	}
	if math.Float64bits(got.Estimates[0]) != math.Float64bits(sum.EstimateRange(box)) {
		t.Fatalf("estimate %v, want %v", got.Estimates[0], sum.EstimateRange(box))
	}

	// Batched POST: three boxes, per-box estimates plus the union total.
	boxes := []structure.Range{
		{{Lo: 0, Hi: 255}, {Lo: 0, Hi: 255}},
		{{Lo: 128, Hi: 383}, {Lo: 128, Hi: 383}}, // overlaps the first
		{{Lo: 900, Hi: 1023}, {Lo: 0, Hi: 1023}},
	}
	req := estimateRequest{}
	for _, b := range boxes {
		req.Ranges = append(req.Ranges, b.String())
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(srv.URL+"/v1/summaries/net/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	var batch estimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Estimates) != len(boxes) {
		t.Fatalf("batch %v", batch)
	}
	for i, b := range boxes {
		if math.Float64bits(batch.Estimates[i]) != math.Float64bits(sum.EstimateRange(b)) {
			t.Fatalf("batch estimate %d: %v, want %v", i, batch.Estimates[i], sum.EstimateRange(b))
		}
	}
	wantTotal := sum.EstimateQuery(structure.Query(boxes))
	if math.Float64bits(batch.Total) != math.Float64bits(wantTotal) {
		t.Fatalf("batch total %v, want %v", batch.Total, wantTotal)
	}

	var total struct {
		Estimate float64 `json:"estimate"`
	}
	getJSON(t, srv.URL+"/v1/summaries/net/total", http.StatusOK, &total)
	if math.Float64bits(total.Estimate) != math.Float64bits(sum.EstimateTotal()) {
		t.Fatalf("total %v, want %v", total.Estimate, sum.EstimateTotal())
	}

	// Abusive batches are rejected: too many ranges, oversized bodies.
	big := estimateRequest{Ranges: make([]string, maxRangesPerRequest+1)}
	for i := range big.Ranges {
		big.Ranges[i] = "0:1,0:1"
	}
	bigBody, _ := json.Marshal(big)
	resp2, err := http.Post(srv.URL+"/v1/summaries/net/estimate", "application/json", bytes.NewReader(bigBody))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch status %d", resp2.StatusCode)
	}
	huge := bytes.Repeat([]byte("x"), maxEstimateBody+1)
	resp3, err := http.Post(srv.URL+"/v1/summaries/net/estimate", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body status %d", resp3.StatusCode)
	}

	// Malformed requests are 400s.
	for _, bad := range []string{
		"/v1/summaries/net/estimate",                   // no range
		"/v1/summaries/net/estimate?range=abc",         // unparseable
		"/v1/summaries/net/estimate?range=0:10",        // wrong dims
		"/v1/summaries/net/estimate?range=0:2000,0:10", // out of domain
		"/v1/summaries/net/representatives?range=0:1,0:1&limit=-2",
	} {
		getJSON(t, srv.URL+bad, http.StatusBadRequest, nil)
	}
}

func TestRepresentatives(t *testing.T) {
	sum := buildSummary(t, 3)
	srv, _, _ := testServer(t, sum)
	box := structure.Range{{Lo: 0, Hi: 1023}, {Lo: 0, Hi: 511}}

	var got representativesResponse
	getJSON(t, srv.URL+"/v1/summaries/net/representatives?range="+box.String()+"&limit=7", http.StatusOK, &got)
	wantKeys, wantWs := sum.RepresentativeKeys(box, 7)
	if got.Count != len(wantKeys) || len(got.Keys) != len(wantKeys) {
		t.Fatalf("count %d, want %d", got.Count, len(wantKeys))
	}
	for i := range wantKeys {
		for d := range wantKeys[i] {
			if got.Keys[i][d] != wantKeys[i][d] {
				t.Fatalf("key %d: %v, want %v", i, got.Keys[i], wantKeys[i])
			}
		}
		if math.Float64bits(got.AdjustedWeights[i]) != math.Float64bits(wantWs[i]) {
			t.Fatalf("weight %d: %v, want %v", i, got.AdjustedWeights[i], wantWs[i])
		}
	}

	// An empty selection returns empty arrays, not null.
	var empty representativesResponse
	getJSON(t, srv.URL+"/v1/summaries/net/representatives?range=0:0,0:0", http.StatusOK, &empty)
	if empty.Count != 0 || empty.Keys == nil || empty.AdjustedWeights == nil {
		t.Fatalf("empty %+v", empty)
	}
}

// TestBackendServing checks the fields estimate and total responses carry
// on a file-backed summary: estimates and bounds bitwise the library's, the
// construction method in the metadata, and the 95% confidence fields.
func TestBackendServing(t *testing.T) {
	sum := buildSummary(t, 21)
	srv, _, _ := testServer(t, sum)
	boxes := []structure.Range{
		{{Lo: 0, Hi: 511}, {Lo: 0, Hi: 511}},
		{{Lo: 256, Hi: 767}, {Lo: 0, Hi: 1023}},
	}
	bound := func(est float64) float64 { return bounds.EstimateBound(est, sum.Tau, 1-serveConfidence) }

	var meta summaryMeta
	getJSON(t, srv.URL+"/v1/summaries/net", http.StatusOK, &meta)
	if meta.Method != "aware" || meta.Size != sum.Size() ||
		math.Float64bits(meta.TotalEstimate) != math.Float64bits(sum.EstimateTotal()) {
		t.Fatalf("meta %+v", meta)
	}

	var got estimateResponse
	getJSON(t, fmt.Sprintf("%s/v1/summaries/net/estimate?range=%s&range=%s", srv.URL, boxes[0], boxes[1]), http.StatusOK, &got)
	if len(got.Estimates) != 2 || len(got.Bounds) != 2 || got.Confidence != 0.95 || !(got.TotalBound > 0) {
		t.Fatalf("response %+v", got)
	}
	for i, b := range boxes {
		est := sum.EstimateRange(b)
		if math.Float64bits(got.Estimates[i]) != math.Float64bits(est) {
			t.Fatalf("estimate %d = %v, want %v", i, got.Estimates[i], est)
		}
		if !(got.Bounds[i] > 0) || math.Float64bits(got.Bounds[i]) != math.Float64bits(bound(est)) {
			t.Fatalf("bound %d = %v, want %v", i, got.Bounds[i], bound(est))
		}
	}
	if want := bound(sum.EstimateQuery(structure.Query(boxes))); math.Float64bits(got.TotalBound) != math.Float64bits(want) {
		t.Fatalf("total bound %v, want %v", got.TotalBound, want)
	}

	var total struct {
		Estimate   float64 `json:"estimate"`
		Bound      float64 `json:"bound"`
		Confidence float64 `json:"confidence"`
	}
	getJSON(t, srv.URL+"/v1/summaries/net/total", http.StatusOK, &total)
	if math.Float64bits(total.Estimate) != math.Float64bits(sum.EstimateTotal()) {
		t.Fatalf("total %v, want %v", total.Estimate, sum.EstimateTotal())
	}
	if !(total.Bound > 0) || total.Confidence != 0.95 {
		t.Fatalf("total bound %v at confidence %v", total.Bound, total.Confidence)
	}
}

// TestQuantileEndpoint checks /quantile: the served median is the
// library's and lands near the exact weighted median, a box is echoed, and
// parameter abuse is rejected.
func TestQuantileEndpoint(t *testing.T) {
	pts, ws := testKeys(21)
	sum := buildSummary(t, 21)
	srv, _, _ := testServer(t, sum)

	// Exact weighted median along axis 0.
	var perX [1024]float64
	var total float64
	for i, p := range pts {
		perX[p[0]] += ws[i]
		total += ws[i]
	}
	exact, acc := 0, 0.0
	for acc < total/2 {
		acc += perX[exact]
		exact++
	}
	exact--

	var got quantileResponse
	getJSON(t, srv.URL+"/v1/summaries/net/quantile?axis=0&phi=0.5", http.StatusOK, &got)
	if got.Axis != 0 || got.Phi != 0.5 {
		t.Fatalf("response %+v", got)
	}
	if want, err := sum.Quantile(0, 0.5); err != nil || got.Coordinate != want {
		t.Fatalf("median %d, library %d (%v)", got.Coordinate, want, err)
	}
	if off := math.Abs(float64(got.Coordinate) - float64(exact)); off > 102 {
		t.Fatalf("median %d, exact %d", got.Coordinate, exact)
	}

	// Restricted to a box, the response echoes the range.
	var boxed quantileResponse
	getJSON(t, srv.URL+"/v1/summaries/net/quantile?axis=1&phi=0.9&range=0:1023,0:1023", http.StatusOK, &boxed)
	if boxed.Range != "0:1023,0:1023" || boxed.Axis != 1 {
		t.Fatalf("boxed response %+v", boxed)
	}

	for _, bad := range []string{
		"/v1/summaries/net/quantile",                                     // no phi
		"/v1/summaries/net/quantile?phi=2",                               // phi out of range
		"/v1/summaries/net/quantile?phi=NaN",                             // phi not a number in [0,1]
		"/v1/summaries/net/quantile?phi=0.5&axis=7",                      // bad axis
		"/v1/summaries/net/quantile?phi=0.5&range=abc",                   // bad range
		"/v1/summaries/net/quantile?phi=0.5&range=0:1",                   // wrong dims
		"/v1/summaries/net/quantile?phi=0.5&range=0:1,0:1&range=0:2,0:2", // two ranges
	} {
		getJSON(t, srv.URL+bad, http.StatusBadRequest, nil)
	}

	// A region holding no sampled key is a 409.
	getJSON(t, srv.URL+"/v1/summaries/net/quantile?phi=0.5&range=0:0,0:0", http.StatusConflict, nil)
}

// TestHeavyHittersEndpoint checks the ranking by adjusted weight against an
// offline selection on a heavy-tailed summary, whose keys above tau keep
// distinct weights, plus the parameter 400s and the empty selection.
func TestHeavyHittersEndpoint(t *testing.T) {
	ds, err := workload.Network(workload.NetworkConfig{Pairs: 4000, Bits: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := core.Build(ds, core.Config{Size: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv, _, _ := testServer(t, sum)

	// Offline reference: pick the heaviest unpicked key k times, the lowest
	// key index winning a tie. At k = 5 every weight is above tau and
	// distinct; k = 60 reaches the keys tied at tau.
	keys, ws := sum.RepresentativeKeys(structure.Range{{Lo: 0, Hi: 1023}, {Lo: 0, Hi: 1023}}, 0)
	for _, k := range []int{5, 60} {
		var got struct {
			K               int        `json:"k"`
			Count           int        `json:"count"`
			Keys            [][]uint64 `json:"keys"`
			AdjustedWeights []float64  `json:"adjusted_weights"`
		}
		getJSON(t, fmt.Sprintf("%s/v1/summaries/net/heavyhitters?range=0:1023,0:1023&k=%d", srv.URL, k), http.StatusOK, &got)
		if got.K != k || got.Count != k || len(got.Keys) != k || len(got.AdjustedWeights) != k {
			t.Fatalf("k=%d: response %+v", k, got)
		}
		picked := make([]bool, len(keys))
		for i := 0; i < k; i++ {
			best := -1
			for j := range keys {
				if !picked[j] && (best < 0 || ws[j] > ws[best]) {
					best = j
				}
			}
			picked[best] = true
			if got.Keys[i][0] != keys[best][0] || got.Keys[i][1] != keys[best][1] ||
				math.Float64bits(got.AdjustedWeights[i]) != math.Float64bits(ws[best]) {
				t.Fatalf("k=%d: hitter %d: %v/%v, want %v/%v", k, i, got.Keys[i], got.AdjustedWeights[i], keys[best], ws[best])
			}
			if k == 5 && i > 0 && !(got.AdjustedWeights[i] < got.AdjustedWeights[i-1]) {
				t.Fatalf("weights not strictly descending at %d: %v", i, got.AdjustedWeights)
			}
		}
		if k == 60 && got.AdjustedWeights[k-1] != sum.Tau {
			t.Fatalf("hitter %d weighs %v, want a key tied at tau %v", k-1, got.AdjustedWeights[k-1], sum.Tau)
		}
	}

	getJSON(t, srv.URL+"/v1/summaries/net/heavyhitters?range=0:1,0:1&k=0", http.StatusBadRequest, nil)
	getJSON(t, srv.URL+"/v1/summaries/net/heavyhitters", http.StatusBadRequest, nil)

	// An empty selection returns [] not null.
	empty := structure.Range{{Lo: 1023, Hi: 1023}, {Lo: 1023, Hi: 1023}}
	if keys, _ := sum.RepresentativeKeys(empty, 0); len(keys) != 0 {
		t.Fatalf("box %s holds %d sampled keys, want none", empty, len(keys))
	}
	var none struct {
		Count int        `json:"count"`
		Keys  [][]uint64 `json:"keys"`
	}
	getJSON(t, srv.URL+"/v1/summaries/net/heavyhitters?range="+empty.String(), http.StatusOK, &none)
	if none.Count != 0 || none.Keys == nil {
		t.Fatalf("empty %+v", none)
	}
}

// TestConcurrentQueries hammers the shared index from many goroutines and
// checks every answer against the linear implementation (run under -race in
// CI).
func TestConcurrentQueries(t *testing.T) {
	sum := buildSummary(t, 4)
	srv, _, _ := testServer(t, sum)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := xmath.NewRand(uint64(100 + w))
			for i := 0; i < 50; i++ {
				lo1, lo2 := r.Uint64()%900, r.Uint64()%900
				box := structure.Range{{Lo: lo1, Hi: lo1 + 123}, {Lo: lo2, Hi: lo2 + 99}}
				var got estimateResponse
				resp, err := http.Get(srv.URL + "/v1/summaries/net/estimate?range=" + box.String())
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
					resp.Body.Close()
					return
				}
				if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
					t.Error(err)
					resp.Body.Close()
					return
				}
				resp.Body.Close()
				if want := sum.EstimateRange(box); math.Float64bits(got.Estimates[0]) != math.Float64bits(want) {
					t.Errorf("worker %d box %s: %v, want %v", w, box, got.Estimates[0], want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestReload exercises the SIGHUP path: a rewritten file swaps in
// atomically, and a corrupt file keeps the previous version serving.
func TestReload(t *testing.T) {
	sum1 := buildSummary(t, 5)
	srv, st, path := testServer(t, sum1)
	box := structure.Range{{Lo: 0, Hi: 511}, {Lo: 0, Hi: 511}}

	ask := func() float64 {
		var got estimateResponse
		getJSON(t, srv.URL+"/v1/summaries/net/estimate?range="+box.String(), http.StatusOK, &got)
		return got.Estimates[0]
	}
	if est := ask(); math.Float64bits(est) != math.Float64bits(sum1.EstimateRange(box)) {
		t.Fatalf("initial estimate %v", est)
	}

	// Swap in a different summary and reload.
	sum2 := buildSummary(t, 6)
	writeSummary(t, path, sum2)
	st.reload()
	if est := ask(); math.Float64bits(est) != math.Float64bits(sum2.EstimateRange(box)) {
		t.Fatalf("post-reload estimate %v, want %v", est, sum2.EstimateRange(box))
	}

	// Corrupt the file: reload logs and keeps serving sum2.
	if err := os.WriteFile(path, []byte("not a summary"), 0o644); err != nil {
		t.Fatal(err)
	}
	st.reload()
	if est := ask(); math.Float64bits(est) != math.Float64bits(sum2.EstimateRange(box)) {
		t.Fatalf("estimate after failed reload %v, want %v", est, sum2.EstimateRange(box))
	}
}

// TestMultipleSummaries serves two summaries side by side.
func TestMultipleSummaries(t *testing.T) {
	dir := t.TempDir()
	a, b := buildSummary(t, 7), buildSummary(t, 8)
	pa, pb := filepath.Join(dir, "a.sas"), filepath.Join(dir, "b.sas")
	writeSummary(t, pa, a)
	writeSummary(t, pb, b)
	st := newStore([]serveSource{{name: "a", path: pa}, {name: "b", path: pb}}, t.Logf)
	if err := st.loadAll(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(st.handler())
	defer srv.Close()

	var list struct {
		Summaries []summaryMeta `json:"summaries"`
	}
	getJSON(t, srv.URL+"/v1/summaries", http.StatusOK, &list)
	if len(list.Summaries) != 2 || list.Summaries[0].Name != "a" || list.Summaries[1].Name != "b" {
		t.Fatalf("list %+v", list.Summaries)
	}
	box := structure.Range{{Lo: 100, Hi: 800}, {Lo: 100, Hi: 800}}
	for name, want := range map[string]*core.Summary{"a": a, "b": b} {
		var got estimateResponse
		getJSON(t, fmt.Sprintf("%s/v1/summaries/%s/estimate?range=%s", srv.URL, name, box), http.StatusOK, &got)
		if math.Float64bits(got.Estimates[0]) != math.Float64bits(want.EstimateRange(box)) {
			t.Fatalf("%s: %v, want %v", name, got.Estimates[0], want.EstimateRange(box))
		}
	}
}
