package main

// Tests for the hot read path added for serving at p99: the epoch-keyed
// answer cache (correctness across snapshot rotations, hit/miss accounting,
// cached == uncached bytes, every summary name), the low-allocation
// contract of a warm-cache GET, the 400 table of the fast parser, the 500s
// for answers JSON cannot carry, and the soak gauntlet of concurrent
// readers against live ingest and entry rotations.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"structaware/internal/core"
	"structaware/internal/structure"
	"structaware/internal/xmath"
)

// getRaw fetches url and returns the raw body bytes and status code.
func getRaw(t *testing.T, url string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.StatusCode
}

// TestAnswerCacheAcrossRotation is the cache-correctness contract: repeat
// queries hit (bit-identically), cache=off bypasses but agrees byte for
// byte, the meta counters move, and a snapshot rotation swaps in a fresh
// epoch whose answers reflect the new data — the old cache is gone with
// its entry, never serving stale estimates.
func TestAnswerCacheAcrossRotation(t *testing.T) {
	st := liveStore(t, "")
	srv := httptest.NewServer(st.handler())
	defer srv.Close()

	coords, weights := genKeys(2000, 201)
	if err := pushDirect(st, coords, weights); err != nil {
		t.Fatal(err)
	}
	if _, err := st.rotate(st.lives["net"], true); err != nil {
		t.Fatal(err)
	}

	const text = "0:511,0:1023"
	url := srv.URL + "/v1/summaries/net/estimate?range=" + text

	body1, code := getRaw(t, url)
	if code != http.StatusOK {
		t.Fatalf("first query status %d", code)
	}
	body2, _ := getRaw(t, url)
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cache hit differs from miss:\n%s\n%s", body1, body2)
	}
	bodyOff, _ := getRaw(t, url+"&cache=off")
	if !bytes.Equal(body1, bodyOff) {
		t.Fatalf("cache=off differs from cached:\n%s\n%s", body1, bodyOff)
	}

	// POST with the same single range rides the same cache and encoding.
	req, _ := json.Marshal(estimateRequest{Ranges: []string{text}})
	resp, err := http.Post(srv.URL+"/v1/summaries/net/estimate", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	postBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(body1, postBody) {
		t.Fatalf("POST single-range differs from GET:\n%s\n%s", body1, postBody)
	}

	var meta summaryMeta
	getJSON(t, srv.URL+"/v1/summaries/net", http.StatusOK, &meta)
	// One miss (the first GET), then GET hit + POST hit; cache=off touched
	// neither counter.
	if meta.CacheMisses != 1 || meta.CacheHits != 2 {
		t.Fatalf("counters hits=%d misses=%d, want 2/1", meta.CacheHits, meta.CacheMisses)
	}
	epoch1 := meta.Epoch
	if epoch1 == 0 {
		t.Fatal("serving entry has epoch 0")
	}

	// Rotation: new keys, forced snapshot, and the same URL must answer from
	// the new epoch with the new data — bit-identical to the fresh backend.
	coords2, weights2 := genKeys(2000, 202)
	if err := pushDirect(st, coords2, weights2); err != nil {
		t.Fatal(err)
	}
	if _, err := st.rotate(st.lives["net"], true); err != nil {
		t.Fatal(err)
	}
	var got estimateResponse
	raw, code := getRaw(t, url)
	if code != http.StatusOK {
		t.Fatalf("post-rotation status %d", code)
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Epoch <= epoch1 {
		t.Fatalf("post-rotation epoch %d did not advance past %d", got.Epoch, epoch1)
	}
	e, _ := st.get("net")
	box, _ := structure.ParseRange(text)
	if math.Float64bits(got.Estimates[0]) != math.Float64bits(e.idx.EstimateRange(box)) {
		t.Fatalf("post-rotation estimate %v, want %v from the new entry", got.Estimates[0], e.idx.EstimateRange(box))
	}
	if bytes.Equal(raw, body1) {
		t.Fatal("post-rotation body identical to the pre-rotation one (stale cache?)")
	}
	getJSON(t, srv.URL+"/v1/summaries/net", http.StatusOK, &meta)
	if meta.CacheMisses != 1 || meta.CacheHits != 0 {
		t.Fatalf("fresh-epoch counters hits=%d misses=%d, want 0/1", meta.CacheHits, meta.CacheMisses)
	}
}

// TestAnswerCacheServesEveryName holds the answer cache to summary names
// and range texts that JSON must escape or that are not ASCII: a repeated
// single-range GET hits, and the cached, cache=off and POST bodies are the
// same bytes.
func TestAnswerCacheServesEveryName(t *testing.T) {
	dir := t.TempDir()
	var sources []serveSource
	for i, name := range []string{"café", `q"1`} {
		path := filepath.Join(dir, fmt.Sprintf("s%d.sas", i))
		writeSummary(t, path, buildSummary(t, uint64(40+i)))
		sources = append(sources, serveSource{name: name, path: path})
	}
	st := newStore(sources, t.Logf)
	if err := st.loadAll(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(st.handler())
	defer srv.Close()

	for _, src := range sources {
		for _, text := range []string{"0:511,0:1023", "0:511,\t256:767"} {
			// Each range text gets a fresh epoch, so the counters start at 0.
			e, _ := st.get(src.name)
			fresh := *e
			st.install(&fresh)

			base := srv.URL + "/v1/summaries/" + url.PathEscape(src.name)
			get := base + "/estimate?range=" + url.QueryEscape(text)
			body1, code := getRaw(t, get)
			if code != http.StatusOK {
				t.Fatalf("%q %q: status %d body %s", src.name, text, code, body1)
			}
			body2, _ := getRaw(t, get)
			if !bytes.Equal(body1, body2) {
				t.Fatalf("%q %q: cache hit differs from miss:\n%s\n%s", src.name, text, body1, body2)
			}
			var meta summaryMeta
			getJSON(t, base, http.StatusOK, &meta)
			if meta.CacheHits != 1 || meta.CacheMisses != 1 {
				t.Fatalf("%q %q: counters hits=%d misses=%d, want 1/1", src.name, text, meta.CacheHits, meta.CacheMisses)
			}
			if off, _ := getRaw(t, get+"&cache=off"); !bytes.Equal(body1, off) {
				t.Fatalf("%q %q: cache=off differs from cached:\n%s\n%s", src.name, text, body1, off)
			}
			req, _ := json.Marshal(estimateRequest{Ranges: []string{text}})
			resp, err := http.Post(base+"/estimate", "application/json", bytes.NewReader(req))
			if err != nil {
				t.Fatal(err)
			}
			posted, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if !bytes.Equal(body1, posted) {
				t.Fatalf("%q %q: POST single-range differs from GET:\n%s\n%s", src.name, text, body1, posted)
			}
			var got estimateResponse
			if err := json.Unmarshal(body1, &got); err != nil {
				t.Fatal(err)
			}
			if got.Summary != src.name || len(got.Ranges) != 1 || got.Ranges[0] != text {
				t.Fatalf("summary %q ranges %q, want %q and [%q]", got.Summary, got.Ranges, src.name, text)
			}
		}
	}
}

// discardResponseWriter is a reusable ResponseWriter so AllocsPerRun
// measures the handler's allocations, not the recorder's.
type discardResponseWriter struct{ h http.Header }

func (d *discardResponseWriter) Header() http.Header         { return d.h }
func (d *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponseWriter) WriteHeader(int)             {}

// maxWarmGetAllocs bounds the per-request heap allocations of a warm-cache
// single-range GET through the full mux. The measured cost is the mux's
// request clone plus the Content-Length string; the budget leaves headroom
// for toolchain drift while still catching any per-request encode or parse
// (a miss, which parses, estimates and encodes, costs 13).
const maxWarmGetAllocs = 10

func TestWarmCacheSingleRangeAllocs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.sas")
	writeSummary(t, path, buildSummary(t, 22))
	st := newStore([]serveSource{{name: "net", path: path}}, t.Logf)
	if err := st.loadAll(); err != nil {
		t.Fatal(err)
	}
	h := st.handler()
	req := httptest.NewRequest("GET", "/v1/summaries/net/estimate?range=0:511,0:1023", nil)
	w := &discardResponseWriter{h: make(http.Header)}
	h.ServeHTTP(w, req) // the priming miss renders and caches
	avg := testing.AllocsPerRun(200, func() {
		h.ServeHTTP(w, req)
	})
	if avg > maxWarmGetAllocs {
		t.Errorf("warm-cache GET allocates %.1f per request, budget %d", avg, maxWarmGetAllocs)
	}
	e, _ := st.get("net")
	if hits, misses := e.cache.Stats(); hits < 200 || misses != 1 {
		t.Fatalf("cache counters hits=%d misses=%d — the warm loop was not served from cache", hits, misses)
	}
}

// maxHeavyHitterAllocs bounds the per-request heap allocations of a
// full-domain heavyhitters?k=3 through the full mux: 18 measured, as many as
// representatives?limit=3. The budget is a constant, not a share of the
// sample: ranking the box's key ids allocates nothing per sampled key, and
// only the k keys returned are built.
const maxHeavyHitterAllocs = 30

func TestHeavyHittersAllocs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.sas")
	writeSummary(t, path, buildSummary(t, 22))
	st := newStore([]serveSource{{name: "net", path: path}}, t.Logf)
	if err := st.loadAll(); err != nil {
		t.Fatal(err)
	}
	h := st.handler()
	req := httptest.NewRequest("GET", "/v1/summaries/net/heavyhitters?range=0:1023,0:1023&k=3", nil)
	w := &discardResponseWriter{h: make(http.Header)}
	avg := testing.AllocsPerRun(200, func() {
		h.ServeHTTP(w, req)
	})
	if avg > maxHeavyHitterAllocs {
		e, _ := st.get("net")
		t.Errorf("heavyhitters?k=3 over %d sampled keys allocates %.1f per request, budget %d",
			e.idx.Size(), avg, maxHeavyHitterAllocs)
	}
}

// TestEstimateBadRanges is the 400 table of the fast query parser: every
// malformed single- and multi-range request is rejected with a JSON error
// body, on GET and on the POST fast path alike.
func TestEstimateBadRanges(t *testing.T) {
	sum := buildSummary(t, 23)
	srv, _, _ := testServer(t, sum)

	for _, tc := range []struct {
		name  string
		query string
	}{
		{"no range", ""},
		{"unparseable", "?range=abc"},
		{"not lo:hi", "?range=12,34"},
		{"empty interval", "?range=5:2,0:10"},
		{"wrong dims", "?range=0:10"},
		{"extra dims", "?range=0:1,0:1,0:1"},
		{"out of domain", "?range=0:2000,0:10"},
		{"overflow", "?range=0:18446744073709551616,0:1"},
		{"bad second range", "?range=0:1,0:1&range=abc"},
		{"bad escape only", "?range=%zz"},
		{"bad with cache off", "?range=abc&cache=off"},
	} {
		body, code := getRaw(t, srv.URL+"/v1/summaries/net/estimate"+tc.query)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: 400 body %q is not a JSON error", tc.name, body)
		}
	}

	// The POST single-range fast path shares the rejection plumbing.
	for _, bad := range []string{"abc", "5:2,0:10", "0:10"} {
		req, _ := json.Marshal(estimateRequest{Ranges: []string{bad}})
		resp, err := http.Post(srv.URL+"/v1/summaries/net/estimate", "application/json", bytes.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q: status %d, want 400", bad, resp.StatusCode)
		}
	}

	// Sanity: a valid single range still answers 200 through the fast path.
	if _, code := getRaw(t, srv.URL+"/v1/summaries/net/estimate?range=0:511,0:1023&cache=off"); code != http.StatusOK {
		t.Fatalf("valid range status %d", code)
	}
}

// TestNonFiniteAnswersFail500 is the fail-closed contract of the encoder:
// an estimate or bound JSON cannot carry is a 500 with a JSON error body on
// every read endpoint — never a 200 with a NaN or an empty body — and the
// single-range fast path caches nothing for it. Each case is a summary
// assembled from exact weights and tau, the state overflowing weights leave
// a summary in, so the test holds whatever admission refuses.
func TestNonFiniteAnswersFail500(t *testing.T) {
	axes := []structure.Axis{structure.BitTrieAxis(10), structure.BitTrieAxis(10)}
	for _, tc := range []struct {
		name    string
		weights []float64
		tau     float64
		// The metadata carries the total estimate but no bound.
		metaFails bool
	}{
		// 1.7e308 + 1.7e308 overflows, and the compensated sum turns NaN.
		{"nan-estimate", []float64{1.7e308, 1.7e308, 1}, 1, true},
		// Two adjusted weights of MaxFloat64 sum to +Inf.
		{"inf-estimate", []float64{1, 2}, math.MaxFloat64, true},
		// A finite estimate of 1e308 whose 95% bound overflows.
		{"inf-bound", []float64{5}, 1e308, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Key k sits at (k, k), inside the queried box 0:511,0:1023.
			coords := [][]uint64{make([]uint64, len(tc.weights)), make([]uint64, len(tc.weights))}
			for k := range tc.weights {
				coords[0][k], coords[1][k] = uint64(k), uint64(k)
			}
			sum := &core.Summary{Axes: axes, Coords: coords, Weights: tc.weights, Tau: tc.tau}
			idx, err := sum.Index()
			if err != nil {
				t.Fatal(err)
			}
			st := newStore([]serveSource{{name: "bad"}}, t.Logf)
			st.install(&entry{name: "bad", idx: idx})
			srv := httptest.NewServer(st.handler())
			defer srv.Close()
			base := srv.URL + "/v1/summaries/bad"
			single := base + "/estimate?range=0:511,0:1023"
			reqs := []struct{ method, url, body string }{
				{"GET", single, ""},
				// A cached body would answer the repeat with a 200.
				{"GET", single, ""},
				{"POST", base + "/estimate", `{"ranges":["0:511,0:1023"]}`},
				{"GET", single + "&range=512:1023,0:1023", ""},
				{"GET", base + "/total", ""},
			}
			if tc.metaFails {
				reqs = append(reqs,
					struct{ method, url, body string }{"GET", base, ""},
					struct{ method, url, body string }{"GET", srv.URL + "/v1/summaries", ""})
			}
			for _, rq := range reqs {
				req, err := http.NewRequest(rq.method, rq.url, strings.NewReader(rq.body))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusInternalServerError {
					t.Errorf("%s %s: status %d body %q, want 500", rq.method, rq.url, resp.StatusCode, body)
					continue
				}
				var er errorResponse
				if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
					t.Errorf("%s %s: 500 body %q is not a JSON error", rq.method, rq.url, body)
				}
			}
			e, _ := st.get("bad")
			if n := e.cache.Len(); n != 0 {
				t.Errorf("answer cache holds %d bodies, want 0", n)
			}
		})
	}
}

// TestServingSoakConsistency is the read-path soak gauntlet (run under
// -race in CI): concurrent readers replay a hot range pool — cached,
// uncached, and via POST — while live ingest keeps rotating fresh epochs
// underneath. Every response must be internally consistent, cached and
// uncached answers within one epoch must agree byte for byte, and any two
// responses for the same (epoch, range) must be identical across all
// readers for the whole run — the immutable-epoch contract the answer
// cache is built on.
func TestServingSoakConsistency(t *testing.T) {
	st := liveStore(t, "")
	srv := httptest.NewServer(st.handler())
	defer srv.Close()

	coords, weights := genKeys(1000, 301)
	if err := pushDirect(st, coords, weights); err != nil {
		t.Fatal(err)
	}
	if _, err := st.rotate(st.lives["net"], true); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c, w := genKeys(150, uint64(5000+i))
			if err := pushDirect(st, c, w); err != nil {
				t.Error(err)
				return
			}
			if _, err := st.rotate(st.lives["net"], true); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	pool := []string{
		"0:1023,0:1023",
		"0:511,0:1023",
		"512:1023,0:1023",
		"0:255,256:511",
		"100:199,0:1023",
	}
	iters := 40
	if testing.Short() {
		iters = 10
	}

	// seen maps "epoch range" to the exact response body: the same epoch
	// must answer the same range identically for every reader, every time,
	// whether the bytes came from the cache, a fresh encoding, or a POST.
	var seen sync.Map
	check := func(text string, body []byte) (estimateResponse, bool) {
		var got estimateResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Errorf("range %s: bad response %q: %v", text, body, err)
			return got, false
		}
		if len(got.Estimates) != 1 ||
			math.Float64bits(got.Estimates[0]) != math.Float64bits(got.Total) {
			t.Errorf("range %s: inconsistent response %s", text, body)
			return got, false
		}
		key := fmt.Sprintf("%d %s", got.Epoch, text)
		if prev, loaded := seen.LoadOrStore(key, string(body)); loaded && prev.(string) != string(body) {
			t.Errorf("epoch %d range %s answered differently:\n%s\n%s", got.Epoch, text, prev, body)
			return got, false
		}
		return got, true
	}

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			base := srv.URL + "/v1/summaries/net/estimate"
			for i := 0; i < iters; i++ {
				text := pool[(r+i)%len(pool)]
				cached, code := getRaw(t, base+"?range="+text)
				if code != http.StatusOK {
					t.Errorf("cached status %d", code)
					return
				}
				uncached, code := getRaw(t, base+"?range="+text+"&cache=off")
				if code != http.StatusOK {
					t.Errorf("uncached status %d", code)
					return
				}
				cr, ok := check(text, cached)
				if !ok {
					return
				}
				ur, ok := check(text, uncached)
				if !ok {
					return
				}
				// A rotation may land between the two GETs; byte equality is
				// only owed within one epoch.
				if cr.Epoch == ur.Epoch && !bytes.Equal(cached, uncached) {
					t.Errorf("epoch %d range %s: cached != uncached:\n%s\n%s", cr.Epoch, text, cached, uncached)
					return
				}
				body, _ := json.Marshal(estimateRequest{Ranges: []string{text}})
				resp, err := http.Post(base, "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				posted, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("POST status %d err %v", resp.StatusCode, err)
					return
				}
				if _, ok := check(text, posted); !ok {
					return
				}
				// Cross-range consistency inside one multi-range response:
				// the two halves sum to the full domain, and the full box
				// equals the union total bit for bit.
				var multi estimateResponse
				raw, code := getRaw(t, base+"?range="+pool[0]+"&range="+pool[1]+"&range="+pool[2])
				if code != http.StatusOK {
					t.Errorf("multi status %d", code)
					return
				}
				if err := json.Unmarshal(raw, &multi); err != nil {
					t.Error(err)
					return
				}
				if math.Float64bits(multi.Estimates[0]) != math.Float64bits(multi.Total) {
					t.Errorf("torn read? full %v != union total %v", multi.Estimates[0], multi.Total)
					return
				}
				if !xmath.AlmostEqual(multi.Estimates[1]+multi.Estimates[2], multi.Estimates[0], 1e-9) {
					t.Errorf("halves %v+%v != full %v", multi.Estimates[1], multi.Estimates[2], multi.Estimates[0])
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
