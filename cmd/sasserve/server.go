package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"structaware/internal/anscache"
	"structaware/internal/backend"
	"structaware/internal/core"
	"structaware/internal/structure"
	"structaware/internal/twopass"
)

// serveConfidence is the coverage level of the confidence-interval fields on
// sample-backed responses: the true weight lies within estimate ± bound with
// probability at least serveConfidence. The IPPS threshold tau behind the
// bound is fixed per serving epoch (summaries are immutable once adapted),
// so the bound is a pure function of the estimate.
const serveConfidence = 0.95

// serveSource describes one summary to serve: a name, a data path, and an
// optional backend build recipe. With a nil cfg (or a bare sample recipe
// without axes) the path is a serialized SAS2 sample summary; with a recipe
// carrying axes the path is a CSV of weighted keys ("c0,c1,...,weight"
// rows) and the summary is built from it at load time via backend.Build —
// the same construction path for all four backend kinds.
type serveSource struct {
	name string
	path string
	cfg  *backend.Config
}

// loadsFile reports whether this source reads a serialized sample summary
// (as opposed to building a backend from raw keys).
func (src serveSource) loadsFile() bool {
	return src.cfg == nil || (src.cfg.Kind == backend.KindSample && src.cfg.Axes == nil)
}

// entry is one serving summary: a backend (any kind) behind the Estimator
// contract, loaded from a file, built from raw keys, or published by a live
// snapshot. Entries are never mutated after creation, so a request
// goroutine can use one without locking; reloads and snapshot rotations
// swap whole entries under the store lock.
type entry struct {
	name     string
	path     string
	be       *backend.Backend
	loadedAt time.Time
	bytes    int64
	// Live-snapshot provenance (zero for file-backed entries): the snapshot
	// sequence number and the keys this process had accepted ahead of the
	// snapshot's rotation barrier — exactly the keys the builder held.
	live   bool
	seq    uint64
	pushed int64

	// Serving epoch and per-epoch answer cache, assigned by store.install
	// when the entry is published. Estimates are immutable per epoch (the
	// entry never changes after the swap), so the cache needs no
	// invalidation beyond being dropped with the entry it belongs to.
	epoch uint64
	cache *anscache.Cache
	// bodyPrefix is the pre-rendered static head of this entry's
	// single-range response bodies (`{"summary":"...","backend":"...",
	// "epoch":N,"ranges":["`), or nil when the name cannot be emitted into
	// JSON verbatim, disabling the pre-rendered fast path for this entry.
	bodyPrefix []byte
}

// sample returns the sample adapter behind the entry, or nil for
// deterministic backends — the capability gate for Method/Tau metadata and
// the live-recovery merge base.
func (e *entry) sample() *backend.Sample {
	s, _ := e.be.Estimator.(*backend.Sample)
	return s
}

// loadEntry materializes one serving entry from a source: a SAS2 read plus
// index compile for sample files, or a backend.Build over the CSV stream
// for -backend recipes.
func loadEntry(src serveSource, now time.Time) (*entry, error) {
	if src.loadsFile() {
		return loadSummaryFile(src.name, src.path, now)
	}
	info, err := os.Stat(src.path)
	if err != nil {
		return nil, err
	}
	cs, err := twopass.NewCSVSource(src.path, len(src.cfg.Axes))
	if err != nil {
		return nil, err
	}
	defer cs.Close()
	be, err := backend.Build(src.cfg.Axes, cs, *src.cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", src.path, err)
	}
	return &entry{
		name:     src.name,
		path:     src.path,
		be:       be,
		loadedAt: now,
		bytes:    info.Size(),
	}, nil
}

// loadSummaryFile reads and indexes one serialized sample summary.
func loadSummaryFile(name, path string, now time.Time) (*entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //sasvet:ok opened read-only; there are no buffered writes whose loss a Close error could signal
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	sum, err := core.ReadSummary(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	idx, err := sum.Index()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &entry{
		name:     name,
		path:     path,
		be:       backend.FromIndexedSummary(idx),
		loadedAt: now,
		bytes:    info.Size(),
	}, nil
}

// store holds the serving set. The read path takes the lock only to fetch
// an *entry pointer; all query work happens on the immutable entry —
// whether it came from a file load, a backend build, or a live snapshot, a
// swap publishes a fully-formed backend atomically.
type store struct {
	sources []serveSource
	logf    func(format string, args ...any)

	// Live (writable) summaries. The maps are immutable once initLive
	// publishes them, but the HTTP listener is up during startup recovery
	// (so /readyz can answer 503), so publication happens under mu and the
	// request path reads them through live()/liveCount().
	lives     map[string]*liveSummary
	liveOrder []string
	liveCfg   liveConfig

	// ready flips once startup recovery — snapshot loads and WAL replay —
	// has finished and every configured summary is queryable; /readyz
	// answers 503 until then.
	ready atomic.Bool

	// cacheCap sizes the per-entry answer cache (-cache-size; 0 disables).
	cacheCap int
	// epochs numbers every installed entry, process-unique and increasing.
	epochs atomic.Uint64

	mu      sync.RWMutex
	entries map[string]*entry
}

func newStore(sources []serveSource, cacheCap int, logf func(format string, args ...any)) *store {
	return &store{sources: sources, cacheCap: cacheCap, logf: logf, entries: make(map[string]*entry)}
}

// live resolves a live summary by name, safely against the startup window
// where requests are already being served but initLive has not published
// the map yet (every name simply doesn't exist until it has).
func (st *store) live(name string) *liveSummary {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.lives[name]
}

func (st *store) liveCount() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.lives)
}

// install publishes a fully-formed entry into the serving map. Every path
// that makes an entry visible goes through here — startup load, SIGHUP
// reload, live-snapshot recovery, and rotation — so each published entry
// carries a fresh epoch number and an empty answer cache: swapping the
// entry IS the wholesale cache invalidation, and the (epoch, backend) part
// of the conceptual (epoch, backend, range) cache key is simply which
// entry's cache a request consults.
func (st *store) install(e *entry) {
	e.epoch = st.epochs.Add(1)
	e.cache = anscache.New(st.cacheCap)
	if jsonPlain(e.name) {
		p := append([]byte(`{"summary":"`), e.name...)
		p = append(p, `","backend":"`...)
		p = append(p, string(e.be.Kind)...)
		p = append(p, `","epoch":`...)
		p = strconv.AppendUint(p, e.epoch, 10)
		p = append(p, `,"ranges":["`...)
		e.bodyPrefix = p
	}
	st.mu.Lock()
	st.entries[e.name] = e
	st.mu.Unlock()
}

// loadAll loads every configured summary; any failure is fatal (startup).
func (st *store) loadAll() error {
	now := time.Now()
	loaded := make([]*entry, 0, len(st.sources))
	for _, src := range st.sources {
		e, err := loadEntry(src, now)
		if err != nil {
			return err
		}
		loaded = append(loaded, e)
	}
	for _, e := range loaded {
		st.install(e)
	}
	return nil
}

// reload re-reads every configured summary (SIGHUP) — re-building
// backend-recipe sources from their CSVs. A summary that fails to load
// keeps serving its previous version; the failure is logged. The swap is
// atomic per entry, so concurrent requests see either the old or the new
// backend, never a partial one.
func (st *store) reload() {
	now := time.Now()
	for _, src := range st.sources {
		e, err := loadEntry(src, now)
		if err != nil {
			st.logf("reload %s: %v (keeping previous version)", src.name, err)
			continue
		}
		st.install(e)
		st.logf("reloaded %s from %s (%s, %d elements)", src.name, src.path, e.be.Kind, e.be.Size())
	}
}

// get fetches a serving entry by name.
func (st *store) get(name string) (*entry, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	e, ok := st.entries[name]
	return e, ok
}

// ---- JSON shapes ------------------------------------------------------------

type axisMeta struct {
	Kind       string `json:"kind"`
	Bits       int    `json:"bits,omitempty"`
	DomainSize uint64 `json:"domain_size"`
	Leaves     int    `json:"leaves,omitempty"`
}

type summaryMeta struct {
	Name    string `json:"name"`
	Path    string `json:"path"`
	Backend string `json:"backend"`
	// Method and Tau describe the sample construction; absent on
	// deterministic backends.
	Method        string     `json:"method,omitempty"`
	Tau           float64    `json:"tau,omitempty"`
	Size          int        `json:"size"`
	Dims          int        `json:"dims"`
	TotalEstimate float64    `json:"total_estimate"`
	Axes          []axisMeta `json:"axes"`
	LoadedAt      time.Time  `json:"loaded_at"`
	Bytes         int64      `json:"bytes"`
	// Epoch identifies the immutable serving generation behind every
	// answer; it increases on each reload, recovery, or snapshot rotation.
	Epoch uint64 `json:"epoch"`
	// Answer-cache counters for this epoch's entry (both zero with -cache-size 0).
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// Live-snapshot provenance, absent on file-backed summaries.
	Live     bool   `json:"live,omitempty"`
	Snapshot uint64 `json:"snapshot,omitempty"`
	Pushed   int64  `json:"pushed,omitempty"`
}

func (e *entry) meta() summaryMeta {
	axes := make([]axisMeta, len(e.be.Axes))
	for d, a := range e.be.Axes {
		am := axisMeta{Kind: a.Kind.String(), DomainSize: a.DomainSize()}
		if a.Kind == structure.Explicit {
			am.Leaves = a.Tree.NumLeaves()
		} else {
			am.Bits = a.Bits
		}
		axes[d] = am
	}
	m := summaryMeta{
		Name:          e.name,
		Path:          e.path,
		Backend:       string(e.be.Kind),
		Size:          e.be.Size(),
		Dims:          len(e.be.Axes),
		TotalEstimate: e.be.EstimateTotal(),
		Axes:          axes,
		LoadedAt:      e.loadedAt,
		Bytes:         e.bytes,
		Epoch:         e.epoch,
		Live:          e.live,
		Snapshot:      e.seq,
		Pushed:        e.pushed,
	}
	m.CacheHits, m.CacheMisses = e.cache.Stats()
	if s := e.sample(); s != nil {
		m.Method = s.Summary().Method.String()
		m.Tau = s.Summary().Tau
	}
	return m
}

// estimateRequest is the batched POST body. Ranges use the textual
// "lo:hi,lo:hi" box syntax (one interval per axis) rather than JSON
// numbers, so coordinates above 2^53 survive JavaScript clients intact.
type estimateRequest struct {
	Ranges []string `json:"ranges"`
}

type estimateResponse struct {
	Summary string `json:"summary"`
	Backend string `json:"backend"`
	// Epoch is the serving generation that produced these estimates; two
	// responses with equal epoch and equal ranges are byte-identical (the
	// contract the soak gauntlet asserts and the answer cache relies on).
	Epoch     uint64    `json:"epoch"`
	Ranges    []string  `json:"ranges"`
	Estimates []float64 `json:"estimates"`
	// Total is the multi-range estimate over the union of the requested
	// boxes (each retained key counted once, as Summary.EstimateQuery).
	Total float64 `json:"total"`
	// Confidence-interval fields, present on backends with per-estimate
	// tail bounds (samples): the true weight lies within
	// estimates[i] ± bounds[i] (and total ± total_bound) with probability
	// at least confidence.
	Confidence float64   `json:"confidence,omitempty"`
	Bounds     []float64 `json:"bounds,omitempty"`
	TotalBound float64   `json:"total_bound,omitempty"`
}

type quantileResponse struct {
	Summary    string  `json:"summary"`
	Backend    string  `json:"backend"`
	Axis       int     `json:"axis"`
	Phi        float64 `json:"phi"`
	Coordinate uint64  `json:"coordinate"`
	Range      string  `json:"range,omitempty"`
}

type representativesResponse struct {
	Summary string `json:"summary"`
	Range   string `json:"range"`
	Count   int    `json:"count"`
	// Keys are coordinate tuples; note JSON consumers limited to float64
	// lose precision above 2^53 (axes up to 53 bits are always safe).
	Keys            [][]uint64 `json:"keys"`
	AdjustedWeights []float64  `json:"adjusted_weights"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ---- Handlers ---------------------------------------------------------------

// handler builds the HTTP API:
//
//	GET  /healthz                                  liveness + loaded count
//	GET  /v1/summaries                             metadata for every summary
//	GET  /v1/summaries/{name}                      metadata for one summary
//	GET  /v1/summaries/{name}/total                total-weight estimate
//	GET  /v1/summaries/{name}/estimate?range=...   one estimate per range param
//	POST /v1/summaries/{name}/estimate             batched {"ranges": [...]}
//	GET  /v1/summaries/{name}/quantile?axis=0&phi=0.5[&range=...]
//	GET  /v1/summaries/{name}/representatives?range=...&limit=n
//	GET  /v1/summaries/{name}/heavyhitters?range=...&k=10
//	POST /v1/summaries/{name}/keys                 ingest keys (live summaries)
//	POST /v1/summaries/{name}/snapshot             force a snapshot (live)
func (st *store) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", st.handleHealth)
	mux.HandleFunc("GET /readyz", st.handleReady)
	mux.HandleFunc("GET /v1/summaries", st.handleList)
	mux.HandleFunc("GET /v1/summaries/{name}", st.withEntry(st.handleMeta))
	mux.HandleFunc("GET /v1/summaries/{name}/total", st.withEntry(st.handleTotal))
	mux.HandleFunc("GET /v1/summaries/{name}/estimate", st.withEntry(st.handleEstimateGet))
	mux.HandleFunc("POST /v1/summaries/{name}/estimate", st.withEntry(st.handleEstimatePost))
	mux.HandleFunc("GET /v1/summaries/{name}/quantile", st.withEntry(st.handleQuantile))
	mux.HandleFunc("GET /v1/summaries/{name}/representatives", st.withEntry(st.handleRepresentatives))
	mux.HandleFunc("GET /v1/summaries/{name}/heavyhitters", st.withEntry(st.handleHeavyHitters))
	mux.HandleFunc("POST /v1/summaries/{name}/keys", st.withLive(st.handlePushKeys))
	mux.HandleFunc("POST /v1/summaries/{name}/snapshot", st.withLive(st.handleForceSnapshot))
	return mux
}

// jsonBufPool recycles response-encoding buffers across requests; buffers
// that ballooned on a large response (a big representatives dump) are let
// go rather than pinned in the pool forever.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledEncodeBuf = 1 << 16

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledEncodeBuf {
		jsonBufPool.Put(buf)
	}
}

// writeRawJSON writes a pre-rendered 200 response body (the single-range
// fast path, cached or freshly rendered — both produce identical bytes).
func writeRawJSON(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// withEntry resolves the {name} path component to a serving summary. A live
// summary that has not published its first snapshot yet exists but has
// nothing to query, which gets its own message.
func (st *store) withEntry(h func(http.ResponseWriter, *http.Request, *entry)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		e, ok := st.get(name)
		if !ok {
			if st.live(name) != nil {
				writeError(w, http.StatusNotFound,
					"live summary %q has no snapshot yet (POST keys, then POST .../snapshot or wait for -snapshot-interval)", name)
				return
			}
			writeError(w, http.StatusNotFound, "no summary named %q", name)
			return
		}
		h(w, r, e)
	}
}

func (st *store) handleHealth(w http.ResponseWriter, _ *http.Request) {
	st.mu.RLock()
	n, lives := len(st.entries), len(st.lives)
	st.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "summaries": n, "live": lives})
}

// handleReady is the readiness probe, distinct from the liveness probe
// above: /healthz answers 200 as soon as the process serves HTTP at all,
// while /readyz answers 503 until startup recovery — file loads, snapshot
// recovery, and WAL-tail replay — has finished and every configured
// summary is queryable. Orchestrators (and the smoke script) gate traffic
// on it instead of sleeping and hoping.
func (st *store) handleReady(w http.ResponseWriter, _ *http.Request) {
	if !st.ready.Load() {
		writeError(w, http.StatusServiceUnavailable, "starting up: snapshot recovery and WAL replay in progress")
		return
	}
	st.mu.RLock()
	n, lives := len(st.entries), len(st.lives)
	st.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "summaries": n, "live": lives})
}

func (st *store) handleList(w http.ResponseWriter, _ *http.Request) {
	st.mu.RLock()
	metas := make([]summaryMeta, 0, len(st.entries))
	for _, src := range st.sources {
		if e, ok := st.entries[src.name]; ok {
			metas = append(metas, e.meta())
		}
	}
	for _, name := range st.liveOrder {
		if e, ok := st.entries[name]; ok {
			metas = append(metas, e.meta())
		}
	}
	st.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{"summaries": metas})
}

func (st *store) handleMeta(w http.ResponseWriter, _ *http.Request, e *entry) {
	writeJSON(w, http.StatusOK, e.meta())
}

func (st *store) handleTotal(w http.ResponseWriter, _ *http.Request, e *entry) {
	resp := map[string]any{
		"summary":  e.name,
		"backend":  string(e.be.Kind),
		"estimate": e.be.EstimateTotal(),
	}
	if b, ok := e.be.Estimator.(backend.Bounder); ok {
		resp["confidence"] = serveConfidence
		resp["bound"] = b.EstimateBound(e.be.EstimateTotal(), 1-serveConfidence)
	}
	writeJSON(w, http.StatusOK, resp)
}

// maxRangesPerRequest bounds batched estimate requests: each range costs a
// summary traversal, so an unbounded batch would let one request monopolize
// the server.
const maxRangesPerRequest = 1024

// maxEstimateBody bounds the POST body size (1024 ranges of generous length
// fit comfortably).
const maxEstimateBody = 1 << 20

// parseBoxes parses and validates the textual ranges against the summary's
// axes.
func parseBoxes(texts []string, e *entry) ([]structure.Range, error) {
	if len(texts) == 0 {
		return nil, fmt.Errorf("at least one range is required (lo:hi per axis, comma-separated)")
	}
	if len(texts) > maxRangesPerRequest {
		return nil, fmt.Errorf("%d ranges exceed the per-request limit of %d", len(texts), maxRangesPerRequest)
	}
	boxes := make([]structure.Range, len(texts))
	for i, text := range texts {
		box, err := structure.ParseRange(text)
		if err != nil {
			return nil, err
		}
		if err := box.Check(e.be.Axes); err != nil {
			return nil, err
		}
		boxes[i] = box
	}
	return boxes, nil
}

// estimate answers one batched estimate request through the Estimator
// contract, taking the backend's batch fast path when it has one and
// attaching confidence bounds when it can prove them.
func estimate(e *entry, texts []string, boxes []structure.Range) estimateResponse {
	resp := estimateResponse{Summary: e.name, Backend: string(e.be.Kind), Epoch: e.epoch, Ranges: texts}
	switch {
	case len(boxes) == 1:
		// The union of one box is that box; one traversal answers both.
		resp.Estimates = []float64{e.be.EstimateRange(boxes[0])}
		resp.Total = resp.Estimates[0]
	default:
		if batch, ok := e.be.Estimator.(backend.BatchEstimator); ok {
			resp.Estimates, resp.Total = batch.EstimateRanges(structure.Query(boxes))
		} else {
			resp.Estimates = make([]float64, len(boxes))
			for i, b := range boxes {
				resp.Estimates[i] = e.be.EstimateRange(b)
			}
			resp.Total = e.be.EstimateQuery(structure.Query(boxes))
		}
	}
	if b, ok := e.be.Estimator.(backend.Bounder); ok {
		resp.Confidence = serveConfidence
		resp.Bounds = make([]float64, len(resp.Estimates))
		for i, est := range resp.Estimates {
			resp.Bounds[i] = b.EstimateBound(est, 1-serveConfidence)
		}
		resp.TotalBound = b.EstimateBound(resp.Total, 1-serveConfidence)
	}
	return resp
}

func (st *store) handleEstimateGet(w http.ResponseWriter, r *http.Request, e *entry) {
	first, all, n, useCache := parseEstimateParams(r.URL.RawQuery)
	if n == 1 {
		serveSingleEstimate(w, e, first, useCache)
		return
	}
	boxes, err := parseBoxes(all, e)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, estimate(e, all, boxes))
}

// parseEstimateParams scans an estimate GET's raw query without building
// url.Values: the steady-state request is exactly one range parameter, and
// its decoded text — returned without allocating in the escape-free case —
// is the answer-cache key. When several ranges are present they all come
// back in all (first included); pairs with invalid percent-escapes are
// skipped, as url.Values does. cache=off opts the request out of the answer
// cache — consistency tests and the load harness's uncached baseline use it.
func parseEstimateParams(raw string) (first string, all []string, n int, useCache bool) {
	useCache = true
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		key, val, _ := strings.Cut(pair, "=")
		switch key {
		case "range":
			text, err := unescapeQueryValue(val)
			if err != nil {
				continue
			}
			if n == 0 {
				first = text
			} else {
				if all == nil {
					all = append(make([]string, 0, n+2), first)
				}
				all = append(all, text)
			}
			n++
		case "cache":
			if val == "off" {
				useCache = false
			}
		}
	}
	return first, all, n, useCache
}

// unescapeQueryValue decodes one query value, with no allocation for the
// common escape-free case.
func unescapeQueryValue(s string) (string, error) {
	if !strings.ContainsAny(s, "%+") {
		return s, nil
	}
	return url.QueryUnescape(s)
}

// jsonPlain reports whether s appears verbatim inside a JSON string under
// the server's non-HTML-escaping encoder: printable ASCII with no quote or
// backslash. Only such strings participate in pre-rendered bodies and cache
// keys; anything else takes the reflective encoder path.
func jsonPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// serveSingleEstimate answers the hot request shape — one range against one
// summary — through the entry's answer cache. A hit writes the previously
// rendered body with zero estimate work; a miss parses, estimates, renders
// once, and caches the body keyed on the literal range text (so a hit also
// skips parsing). Cached and uncached answers are byte-identical by
// construction: both are produced by the same renderer, and the entry (and
// with it the cache) is immutable for its whole epoch.
func serveSingleEstimate(w http.ResponseWriter, e *entry, text string, useCache bool) {
	if e.bodyPrefix == nil || !jsonPlain(text) {
		// Names or texts the pre-renderer cannot emit verbatim go through
		// the reflective encoder, uncached.
		boxes, err := parseBoxes([]string{text}, e)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, estimate(e, []string{text}, boxes))
		return
	}
	if useCache {
		if body, ok := e.cache.Get(text); ok {
			writeRawJSON(w, body)
			return
		}
	}
	box, err := structure.ParseRange(text)
	if err == nil {
		err = box.Check(e.be.Axes)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body := renderSingleEstimate(e, text, box)
	if useCache {
		e.cache.Put(text, body)
	}
	writeRawJSON(w, body)
}

// renderSingleEstimate renders the single-range response body by hand,
// byte-for-byte what writeJSON produces for the equivalent
// estimateResponse — field order, float formatting (see appendJSONFloat),
// omitempty behavior, and the encoder's trailing newline — without the
// reflection walk. The equivalence is pinned by TestSingleRangeRenderParity.
func renderSingleEstimate(e *entry, text string, box structure.Range) []byte {
	est := e.be.EstimateRange(box)
	b := make([]byte, 0, len(e.bodyPrefix)+len(text)+112)
	b = append(b, e.bodyPrefix...)
	b = append(b, text...)
	b = append(b, `"],"estimates":[`...)
	b = appendJSONFloat(b, est)
	b = append(b, `],"total":`...)
	b = appendJSONFloat(b, est)
	if bd, ok := e.be.Estimator.(backend.Bounder); ok {
		bound := bd.EstimateBound(est, 1-serveConfidence)
		b = append(b, `,"confidence":`...)
		b = appendJSONFloat(b, serveConfidence)
		b = append(b, `,"bounds":[`...)
		b = appendJSONFloat(b, bound)
		b = append(b, ']')
		if bound != 0 { // omitempty parity
			b = append(b, `,"total_bound":`...)
			b = appendJSONFloat(b, bound)
		}
	}
	b = append(b, '}', '\n')
	return b
}

// appendJSONFloat appends f exactly as encoding/json renders a float64:
// shortest decimal form, 'f' format except for magnitudes below 1e-6 or at
// least 1e21, which use 'e' with a one-digit-minimum exponent. The smoke
// test compares a rendered estimate against /total output textually, so
// this parity is load-bearing, not cosmetic.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// writeDecodeError answers a failed body decode: an exceeded size cap is
// 413 with the limit in the message (not the misleading "bad JSON body"
// 400 the raw decoder error reads as); anything else is a 400. The one
// place encoding the policy, shared by the estimate and ingest endpoints.
func writeDecodeError(w http.ResponseWriter, what string, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds the %d-byte limit", tooBig.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, "bad %s body: %v", what, err)
}

// decodeBody decodes a JSON request body capped at limit bytes.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	body := http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		writeDecodeError(w, "JSON", err)
		return false
	}
	return true
}

func (st *store) handleEstimatePost(w http.ResponseWriter, r *http.Request, e *entry) {
	var req estimateRequest
	if !decodeBody(w, r, maxEstimateBody, &req) {
		return
	}
	if len(req.Ranges) == 1 {
		// Same fast path (and cache) as the single-range GET, so the two
		// verbs answer the same question with identical bytes.
		serveSingleEstimate(w, e, req.Ranges[0], true)
		return
	}
	boxes, err := parseBoxes(req.Ranges, e)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, estimate(e, req.Ranges, boxes))
}

// handleQuantile answers GET .../quantile?axis=0&phi=0.5[&range=...]: the
// smallest coordinate on the axis holding at least phi of the (estimated)
// weight, optionally restricted to one box. A region the backend estimates
// as empty is a 409 (there is no quantile to report), not a 500.
func (st *store) handleQuantile(w http.ResponseWriter, r *http.Request, e *entry) {
	qt, ok := e.be.Estimator.(backend.Quantiler)
	if !ok {
		writeError(w, http.StatusNotImplemented, "backend %s does not support quantiles", e.be.Kind)
		return
	}
	q := r.URL.Query()
	phi, err := strconv.ParseFloat(q.Get("phi"), 64)
	if err != nil || phi < 0 || phi > 1 {
		writeError(w, http.StatusBadRequest, "phi must be a number in [0,1]")
		return
	}
	axis := 0
	if s := q.Get("axis"); s != "" {
		axis, err = strconv.Atoi(s)
		if err != nil || axis < 0 || axis >= len(e.be.Axes) {
			writeError(w, http.StatusBadRequest, "axis must be an integer in [0,%d)", len(e.be.Axes))
			return
		}
	}
	resp := quantileResponse{Summary: e.name, Backend: string(e.be.Kind), Axis: axis, Phi: phi}
	var coord uint64
	if texts := q["range"]; len(texts) > 0 {
		if len(texts) != 1 {
			writeError(w, http.StatusBadRequest, "at most one range parameter is allowed")
			return
		}
		boxes, perr := parseBoxes(texts, e)
		if perr != nil {
			writeError(w, http.StatusBadRequest, "%v", perr)
			return
		}
		resp.Range = texts[0]
		coord, err = qt.QuantileInRange(axis, phi, boxes[0])
	} else {
		coord, err = qt.Quantile(axis, phi)
	}
	if errors.Is(err, backend.ErrNoMass) {
		writeError(w, http.StatusConflict, "the selected region holds no estimated weight")
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp.Coordinate = coord
	writeJSON(w, http.StatusOK, resp)
}

func (st *store) handleRepresentatives(w http.ResponseWriter, r *http.Request, e *entry) {
	rep, ok := e.be.Estimator.(backend.RepresentativeKeyer)
	if !ok {
		writeError(w, http.StatusNotImplemented,
			"backend %s retains no keys; representatives require a sample backend", e.be.Kind)
		return
	}
	q := r.URL.Query()
	texts := q["range"]
	if len(texts) != 1 {
		writeError(w, http.StatusBadRequest, "exactly one range parameter is required")
		return
	}
	boxes, err := parseBoxes(texts, e)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	limit := 0
	if s := q.Get("limit"); s != "" {
		limit, err = strconv.Atoi(s)
		if err != nil || limit < 0 {
			writeError(w, http.StatusBadRequest, "limit must be a non-negative integer")
			return
		}
	}
	keys, ws := rep.RepresentativeKeys(boxes[0], limit)
	writeJSON(w, http.StatusOK, representativesResponse{
		Summary:         e.name,
		Range:           texts[0],
		Count:           len(keys),
		Keys:            emptyIfNilKeys(keys),
		AdjustedWeights: emptyIfNilWeights(ws),
	})
}

// defaultHeavyHitters is the k applied when the query omits one.
const defaultHeavyHitters = 10

// handleHeavyHitters answers GET .../heavyhitters?range=...&k=n: the k
// retained keys of largest adjusted weight inside the box, heaviest first —
// the representatives endpoint ranked by weight instead of key order.
func (st *store) handleHeavyHitters(w http.ResponseWriter, r *http.Request, e *entry) {
	hh, ok := e.be.Estimator.(backend.HeavyHitter)
	if !ok {
		writeError(w, http.StatusNotImplemented,
			"backend %s retains no keys; heavy hitters require a sample backend", e.be.Kind)
		return
	}
	q := r.URL.Query()
	texts := q["range"]
	if len(texts) != 1 {
		writeError(w, http.StatusBadRequest, "exactly one range parameter is required")
		return
	}
	boxes, err := parseBoxes(texts, e)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	k := defaultHeavyHitters
	if s := q.Get("k"); s != "" {
		k, err = strconv.Atoi(s)
		if err != nil || k <= 0 {
			writeError(w, http.StatusBadRequest, "k must be a positive integer")
			return
		}
	}
	keys, ws := hh.HeavyHitters(boxes[0], k)
	writeJSON(w, http.StatusOK, map[string]any{
		"summary":          e.name,
		"backend":          string(e.be.Kind),
		"range":            texts[0],
		"k":                k,
		"count":            len(keys),
		"keys":             emptyIfNilKeys(keys),
		"adjusted_weights": emptyIfNilWeights(ws),
	})
}

// emptyIfNilKeys and emptyIfNilWeights keep empty selections as [] in JSON
// rather than null.
func emptyIfNilKeys(keys [][]uint64) [][]uint64 {
	if keys == nil {
		return [][]uint64{}
	}
	return keys
}

func emptyIfNilWeights(ws []float64) []float64 {
	if ws == nil {
		return []float64{}
	}
	return ws
}
