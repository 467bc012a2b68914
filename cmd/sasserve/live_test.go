package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"structaware/internal/cliutil"
	"structaware/internal/core"
	"structaware/internal/structure"
	"structaware/internal/wal"
	"structaware/internal/wire"
	"structaware/internal/xmath"
)

// liveTestCfg is the construction config of every live test summary; the
// offline comparators must use the same values to reproduce the server's
// snapshots bit for bit.
var liveTestCfg = core.Config{Size: 120, Seed: 7}

const liveAxesSpec = "bittrie:10,bittrie:10"

// liveStore builds a store with one live summary "net" over a 2×10-bit
// domain (no file-backed summaries unless sources are given). The summary
// has one builder, so the bit-equality tests reproduce the server's
// snapshots with one offline Builder fed the same batches in ack order.
func liveStore(t *testing.T, dir string, sources ...serveSource) *store {
	t.Helper()
	st := newStore(sources, 4096, t.Logf)
	if err := st.loadAll(); err != nil {
		t.Fatal(err)
	}
	err := st.initLive(
		[]cliutil.Assignment{{Name: "net", Value: liveAxesSpec}},
		liveConfig{size: liveTestCfg.Size, seed: liveTestCfg.Seed, dir: dir},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.closeLive)
	return st
}

// genKeys derives n deterministic weighted 2-D keys.
func genKeys(n int, seed uint64) (coords [][]uint64, weights []float64) {
	r := xmath.NewRand(seed)
	coords = [][]uint64{make([]uint64, n), make([]uint64, n)}
	weights = make([]float64, n)
	for i := 0; i < n; i++ {
		coords[0][i] = r.Uint64() % 1024
		coords[1][i] = r.Uint64() % 1024
		weights[i] = 1 + 10*r.Float64()
	}
	return coords, weights
}

// postJSON posts body to url and returns the status code and decoded JSON
// response (into v, when non-nil).
func postJSON(t *testing.T, url, contentType string, body []byte, v any) int {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("POST %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// pushColumnar pushes keys through the columnar JSON ingest body.
func pushColumnar(t *testing.T, url string, coords [][]uint64, weights []float64) pushResponse {
	t.Helper()
	body, err := json.Marshal(pushRequest{Coords: coords, Weights: weights})
	if err != nil {
		t.Fatal(err)
	}
	var pr pushResponse
	if code := postJSON(t, url+"/v1/summaries/net/keys", "application/json", body, &pr); code != http.StatusOK {
		t.Fatalf("push status %d", code)
	}
	return pr
}

// TestPushSnapshotSeqOnlyCountsPublished pins pushResponse.Snapshot to
// published snapshots: a failed rotation consumes an attempt number (the
// WAL coverage rule needs that) but must not advance the number clients
// poll to await durability — they would wait on a snapshot that never
// happened.
func TestPushSnapshotSeqOnlyCountsPublished(t *testing.T) {
	st := liveStore(t, "")
	srv := httptest.NewServer(st.handler())
	defer srv.Close()

	// Forcing a snapshot with no data fails the rotation after it has
	// consumed attempt seq 1.
	if code := postJSON(t, srv.URL+"/v1/summaries/net/snapshot", "application/json", nil, nil); code != http.StatusConflict {
		t.Fatalf("empty force-snapshot status %d, want 409", code)
	}
	ls := st.lives["net"]
	if got := ls.pub.Load(); got != 0 {
		t.Fatalf("published seq after failed rotation = %d, want 0 (attempt %d never published)", got, ls.seq)
	}

	coords, weights := genKeys(100, 3)
	if pr := pushColumnar(t, srv.URL, coords, weights); pr.Snapshot != 0 {
		t.Fatalf("push response snapshot = %d before any publish", pr.Snapshot)
	}
	var snap struct {
		Snapshot uint64 `json:"snapshot"`
	}
	if code := postJSON(t, srv.URL+"/v1/summaries/net/snapshot", "application/json", nil, &snap); code != http.StatusOK {
		t.Fatalf("snapshot status %d", code)
	}
	if snap.Snapshot != 2 {
		t.Fatalf("published snapshot seq = %d, want 2 (attempt 1 failed)", snap.Snapshot)
	}
	if pr := pushColumnar(t, srv.URL, coords, weights); pr.Snapshot != 2 {
		t.Fatalf("push response snapshot = %d after publish, want 2", pr.Snapshot)
	}
}

// TestLiveIngestSnapshotQuery is the end-to-end write path: keys pushed
// over HTTP (columnar JSON and a binary frame) become queryable after a
// snapshot, with estimates bit-identical to an offline Builder fed the
// same stream and snapshotted at the same point.
func TestLiveIngestSnapshotQuery(t *testing.T) {
	st := liveStore(t, "")
	srv := httptest.NewServer(st.handler())
	defer srv.Close()

	// Before the first snapshot the live summary exists but serves nothing.
	resp, err := http.Get(srv.URL + "/v1/summaries/net")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pre-snapshot meta status %d, want 404", resp.StatusCode)
	}

	coords, weights := genKeys(3000, 31)
	half := len(weights) / 2
	firstC := [][]uint64{coords[0][:half], coords[1][:half]}
	pr := pushColumnar(t, srv.URL, firstC, weights[:half])
	if pr.Pushed != half || pr.TotalPushed != int64(half) || pr.Snapshot != 0 {
		t.Fatalf("push response %+v", pr)
	}

	// Second half as a binary frame.
	secondC := [][]uint64{coords[0][half:], coords[1][half:]}
	var pr2 pushResponse
	code := postFrame(t, srv.URL, secondC, weights[half:], &pr2)
	if code != http.StatusOK || pr2.TotalPushed != int64(len(weights)) {
		t.Fatalf("frame push status %d response %+v", code, pr2)
	}

	// Force a snapshot and query.
	var snap struct {
		Snapshot uint64 `json:"snapshot"`
		Size     int    `json:"size"`
	}
	if code := postJSON(t, srv.URL+"/v1/summaries/net/snapshot", "application/json", nil, &snap); code != http.StatusOK {
		t.Fatalf("snapshot status %d", code)
	}
	if snap.Snapshot != 1 || snap.Size != liveTestCfg.Size {
		t.Fatalf("snapshot response %+v", snap)
	}

	// The offline comparator: same config, same stream, same order.
	axes, err := structure.ParseAxisSpec(liveAxesSpec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewBuilder(axes, liveTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.PushBatch(coords, weights); err != nil {
		t.Fatal(err)
	}
	want, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, box := range []structure.Range{
		{{Lo: 0, Hi: 1023}, {Lo: 0, Hi: 1023}},
		{{Lo: 0, Hi: 511}, {Lo: 256, Hi: 767}},
		{{Lo: 100, Hi: 199}, {Lo: 0, Hi: 1023}},
	} {
		var got estimateResponse
		getJSON(t, srv.URL+"/v1/summaries/net/estimate?range="+box.String(), http.StatusOK, &got)
		if math.Float64bits(got.Estimates[0]) != math.Float64bits(want.EstimateRange(box)) {
			t.Fatalf("box %s: %v, want %v", box, got.Estimates[0], want.EstimateRange(box))
		}
	}

	// Metadata carries the live provenance.
	var meta summaryMeta
	getJSON(t, srv.URL+"/v1/summaries/net", http.StatusOK, &meta)
	if !meta.Live || meta.Snapshot != 1 || meta.Pushed != int64(len(weights)) || meta.Path != "(live)" {
		t.Fatalf("meta %+v", meta)
	}

	// The builder was not consumed: more keys, another snapshot, and the
	// serving entry advances to epoch 2 matching the offline continuation.
	extraC, extraW := genKeys(500, 32)
	pushColumnar(t, srv.URL, extraC, extraW)
	if code := postJSON(t, srv.URL+"/v1/summaries/net/snapshot", "application/json", nil, &snap); code != http.StatusOK || snap.Snapshot != 2 {
		t.Fatalf("second snapshot status %d response %+v", code, snap)
	}
	if err := b.PushBatch(extraC, extraW); err != nil {
		t.Fatal(err)
	}
	want2, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	full := structure.Range{{Lo: 0, Hi: 1023}, {Lo: 0, Hi: 1023}}
	var got estimateResponse
	getJSON(t, srv.URL+"/v1/summaries/net/estimate?range="+full.String(), http.StatusOK, &got)
	if math.Float64bits(got.Estimates[0]) != math.Float64bits(want2.EstimateRange(full)) {
		t.Fatalf("epoch 2: %v, want %v", got.Estimates[0], want2.EstimateRange(full))
	}
}

// TestLiveIngestErrors covers the rejection paths of the write API: wrong
// names, read-only summaries, malformed batches, and the 413 contract on
// both POST bodies.
func TestLiveIngestErrors(t *testing.T) {
	dir := t.TempDir()
	staticPath := filepath.Join(dir, "files.sas")
	writeSummary(t, staticPath, buildSummary(t, 9))
	st := liveStore(t, "", serveSource{name: "files", path: staticPath})
	srv := httptest.NewServer(st.handler())
	defer srv.Close()

	ok := func(coords [][]uint64, weights []float64) []byte {
		body, err := json.Marshal(pushRequest{Coords: coords, Weights: weights})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	for _, tc := range []struct {
		name   string
		url    string
		ctype  string
		body   []byte
		status int
	}{
		{"unknown name", "/v1/summaries/nosuch/keys", "application/json", ok([][]uint64{{1}, {2}}, []float64{1}), http.StatusNotFound},
		{"read-only static", "/v1/summaries/files/keys", "application/json", ok([][]uint64{{1}, {2}}, []float64{1}), http.StatusConflict},
		{"snapshot of static", "/v1/summaries/files/snapshot", "application/json", nil, http.StatusConflict},
		{"empty batch", "/v1/summaries/net/keys", "application/json", ok([][]uint64{{}, {}}, nil), http.StatusBadRequest},
		{"wrong columns", "/v1/summaries/net/keys", "application/json", ok([][]uint64{{1}}, []float64{1}), http.StatusBadRequest},
		{"ragged columns", "/v1/summaries/net/keys", "application/json", ok([][]uint64{{1, 2}, {3}}, []float64{1, 1}), http.StatusBadRequest},
		{"out of domain", "/v1/summaries/net/keys", "application/json", ok([][]uint64{{5000}, {1}}, []float64{1}), http.StatusBadRequest},
		{"negative weight", "/v1/summaries/net/keys", "application/json", ok([][]uint64{{1}, {2}}, []float64{-1}), http.StatusBadRequest},
		{"ndjson rows", "/v1/summaries/net/keys", "application/x-ndjson", []byte("{\"point\":[1,2],\"weight\":1}\n{\"point\":[3,4],\"weight\":2}\n"), http.StatusBadRequest},
		{"not json", "/v1/summaries/net/keys", "application/json", []byte("nope"), http.StatusBadRequest},
		{"snapshot without data", "/v1/summaries/net/snapshot", "application/json", nil, http.StatusConflict},
	} {
		if code := postJSON(t, srv.URL+tc.url, tc.ctype, tc.body, nil); code != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, code, tc.status)
		}
	}

	// A rejected batch is atomic: no partial ingest happened above, so a
	// snapshot still reports no data.
	if code := postJSON(t, srv.URL+"/v1/summaries/net/snapshot", "application/json", nil, nil); code != http.StatusConflict {
		t.Fatalf("post-rejection snapshot status %d, want 409", code)
	}

	// Oversized bodies are 413 with the limit in the message, on the ingest
	// endpoint and on POST /estimate alike (the old behavior was a
	// misleading "bad JSON body" 400). A frame body's cap is the size of a
	// max-rows frame for its summary's axis count, so an 8-axis summary
	// takes maxKeysPerPush keys in one frame, and not one byte more.
	wide := newStore(nil, 4096, t.Logf)
	err := wide.initLive(
		[]cliutil.Assignment{{Name: "wide", Value: strings.Repeat("bittrie:8,", 7) + "bittrie:8"}},
		liveConfig{size: liveTestCfg.Size, seed: liveTestCfg.Seed},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(wide.closeLive)
	wideSrv := httptest.NewServer(wide.handler())
	defer wideSrv.Close()
	wideCoords, wideWeights := make([][]uint64, 8), make([]float64, maxKeysPerPush)
	for d := range wideCoords {
		wideCoords[d] = make([]uint64, maxKeysPerPush) // every key at the origin
	}
	for i := range wideWeights {
		wideWeights[i] = 1
	}
	maxFrame, err := wire.AppendFrame(nil, wideCoords, wideWeights)
	if err != nil {
		t.Fatal(err)
	}
	// An oversized JSON body must be valid JSON that only reveals its size
	// by being read: syntactically invalid input fails as a 400 at the
	// first token, long before the byte cap.
	hugeJSON := func(limit int) []byte {
		var huge bytes.Buffer
		huge.WriteString(`{"weights":[`)
		for huge.Len() <= limit {
			huge.WriteString("0,")
		}
		huge.WriteString("0]}")
		return huge.Bytes()
	}
	for _, tc := range []struct {
		name   string
		url    string
		ctype  string
		body   []byte
		status int
		limit  int // the byte limit a 413 must state
	}{
		{"columnar JSON", srv.URL + "/v1/summaries/net/keys", "application/json", hugeJSON(maxIngestBody),
			http.StatusRequestEntityTooLarge, maxIngestBody},
		{"estimate", srv.URL + "/v1/summaries/files/estimate", "application/json", hugeJSON(maxEstimateBody),
			http.StatusRequestEntityTooLarge, maxEstimateBody},
		{"max-rows frame, 8 axes", wideSrv.URL + "/v1/summaries/wide/keys", frameContentType, maxFrame,
			http.StatusOK, 0},
		{"frame one byte over the 8-axis cap", wideSrv.URL + "/v1/summaries/wide/keys", frameContentType,
			append(maxFrame[:len(maxFrame):len(maxFrame)], 0),
			http.StatusRequestEntityTooLarge, wire.FrameSize(8, maxKeysPerPush)},
	} {
		resp, err := http.Post(tc.url, tc.ctype, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, raw)
		}
		if want := fmt.Sprintf("%d-byte limit", tc.limit); tc.limit > 0 && !strings.Contains(string(raw), want) {
			t.Fatalf("%s: 413 body %q does not state the limit %q", tc.name, raw, want)
		}
	}
}

// TestLivePersistRecover: snapshots persist as numbered SAS2 files, the
// newest one is recovered on startup (serving immediately), post-restart
// keys merge with the recovered base, and old files are pruned.
func TestLivePersistRecover(t *testing.T) {
	dir := t.TempDir()
	st1 := liveStore(t, dir)
	ls1 := st1.lives["net"]
	coords, weights := genKeys(2000, 41)
	if err := pushDirect(st1, coords, weights); err != nil {
		t.Fatal(err)
	}
	e1, err := st1.rotate(ls1, true)
	if err != nil {
		t.Fatal(err)
	}
	if e1.seq != 1 || e1.path != snapshotPath(dir, "net", 1) {
		t.Fatalf("entry %q seq %d", e1.path, e1.seq)
	}
	if _, err := os.Stat(e1.path); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh store over the same directory recovers snapshot 1
	// and serves it without any pushes.
	st2 := liveStore(t, dir)
	e2, ok := st2.get("net")
	if !ok {
		t.Fatal("restart did not recover a serving entry")
	}
	if e2.seq != 1 || e2.idx.Size() != e1.idx.Size() {
		t.Fatalf("recovered seq %d size %d, want %d/%d", e2.seq, e2.idx.Size(), e1.seq, e1.idx.Size())
	}
	full := structure.Range{{Lo: 0, Hi: 1023}, {Lo: 0, Hi: 1023}}
	if math.Float64bits(e2.idx.EstimateRange(full)) != math.Float64bits(e1.idx.EstimateRange(full)) {
		t.Fatal("recovered snapshot estimates differ from the persisted ones")
	}

	// Keys pushed after the restart merge with the recovered base: the new
	// epoch still estimates the total weight of the WHOLE stream (both
	// processes), unbiasedly — here checked against the exact total, which
	// VarOpt preserves up to float rounding.
	coords2, weights2 := genKeys(2000, 42)
	if err := pushDirect(st2, coords2, weights2); err != nil {
		t.Fatal(err)
	}
	e3, err := st2.rotate(st2.lives["net"], true)
	if err != nil {
		t.Fatal(err)
	}
	if e3.seq != 2 {
		t.Fatalf("post-restart snapshot seq %d, want 2", e3.seq)
	}
	exact := 0.0
	for _, w := range weights {
		exact += w
	}
	for _, w := range weights2 {
		exact += w
	}
	if got := e3.idx.EstimateTotal(); !xmath.AlmostEqual(got, exact, 1e-6) {
		t.Fatalf("merged total %v, want ~%v", got, exact)
	}

	// Rotations prune old files down to keepSnapshots.
	for i := 0; i < keepSnapshots+2; i++ {
		c, w := genKeys(50, uint64(60+i))
		if err := pushDirect(st2, c, w); err != nil {
			t.Fatal(err)
		}
		if _, err := st2.rotate(st2.lives["net"], true); err != nil {
			t.Fatal(err)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "net-*.sas"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != keepSnapshots {
		t.Fatalf("%d snapshot files after pruning, want %d: %v", len(files), keepSnapshots, files)
	}

	// A torn newest snapshot (power loss mid-write) must not wedge startup:
	// recovery falls back to the next-newest loadable file, and new
	// snapshots still number above the corrupt one.
	newest := st2.lives["net"].seq
	if err := os.WriteFile(snapshotPath(dir, "net", newest), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	st3 := liveStore(t, dir)
	e4, ok := st3.get("net")
	if !ok || e4.seq != newest-1 {
		t.Fatalf("fallback recovery: ok=%v seq=%d, want snapshot %d", ok, e4.seq, newest-1)
	}
	if st3.lives["net"].seq != newest {
		t.Fatalf("post-fallback seq %d, want %d (above the corrupt file)", st3.lives["net"].seq, newest)
	}
	c, w := genKeys(50, 99)
	if err := pushDirect(st3, c, w); err != nil {
		t.Fatal(err)
	}
	e5, err := st3.rotate(st3.lives["net"], true)
	if err != nil || e5.seq != newest+1 {
		t.Fatalf("post-fallback rotate: %+v, %v", e5, err)
	}
	// With every retained file corrupt, startup fails loudly instead of
	// silently forgetting the persisted history.
	snaps, err := listSnapshots(dir, "net")
	if err != nil {
		t.Fatal(err)
	}
	for _, sn := range snaps {
		if err := os.WriteFile(sn.path, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st4 := newStore(nil, 4096, t.Logf)
	err = st4.initLive(
		[]cliutil.Assignment{{Name: "net", Value: liveAxesSpec}},
		liveConfig{size: liveTestCfg.Size, seed: liveTestCfg.Seed, dir: dir},
	)
	if err == nil || !strings.Contains(err.Error(), "no loadable snapshot") {
		t.Fatalf("all-corrupt recovery: %v, want 'no loadable snapshot' error", err)
	}
}

// pushDirect pushes a batch into the store's live summary without HTTP,
// through the same validated ingest queue the handler uses (a later
// rotate's barrier follows it down the queue, so the keys are in the
// builder by snapshot time). A full queue is retried after a pause, as an
// HTTP client retries a 429. The batch is stack-owned, not pooled, so the
// worker's release is a no-op.
func pushDirect(st *store, coords [][]uint64, weights []float64) error {
	ls := st.lives["net"]
	batch := &ingestBatch{Batch: wire.Batch{Coords: coords, Weights: weights}}
	sum, err := validateBatch(ls.axes, &batch.Batch)
	if err != nil {
		return err
	}
	for {
		err := ls.enqueue(batch, sum)
		if !errors.Is(err, errIngestQueueFull) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRotateSkipsClean: the interval rotation is a no-op when nothing was
// pushed since the last snapshot, but a forced snapshot republishes.
func TestRotateSkipsClean(t *testing.T) {
	st := liveStore(t, "")
	ls := st.lives["net"]
	if e, err := st.rotate(ls, false); e != nil || err != nil {
		t.Fatalf("clean unforced rotate: %v, %v", e, err)
	}
	coords, weights := genKeys(100, 77)
	if err := pushDirect(st, coords, weights); err != nil {
		t.Fatal(err)
	}
	e1, err := st.rotate(ls, false)
	if err != nil || e1 == nil {
		t.Fatalf("dirty rotate: %v, %v", e1, err)
	}
	if e, err := st.rotate(ls, false); e != nil || err != nil {
		t.Fatalf("second unforced rotate should skip: %v, %v", e, err)
	}
	e2, err := st.rotate(ls, true)
	if err != nil || e2 == nil || e2.seq != e1.seq+1 {
		t.Fatalf("forced rotate: %+v, %v", e2, err)
	}
	// A forced republish of an unchanged stream reproduces the snapshot
	// bit for bit (the Snapshot determinism contract).
	full := structure.Range{{Lo: 0, Hi: 1023}, {Lo: 0, Hi: 1023}}
	if math.Float64bits(e1.idx.EstimateRange(full)) != math.Float64bits(e2.idx.EstimateRange(full)) {
		t.Fatal("republished snapshot differs from the previous epoch")
	}
}

// TestConcurrentLiveServing hammers the read endpoints while pushes,
// snapshot rotations, and file reloads swap entries underneath — the -race
// gauntlet for the serving swap. Every response must be internally
// consistent (served from one fully-formed index): the full-domain box
// estimate equals the response's own union total bit for bit, and the two
// half-domain boxes sum to the full one.
func TestConcurrentLiveServing(t *testing.T) {
	dir := t.TempDir()
	staticPath := filepath.Join(dir, "files.sas")
	writeSummary(t, staticPath, buildSummary(t, 10))
	st := liveStore(t, "", serveSource{name: "files", path: staticPath})
	srv := httptest.NewServer(st.handler())
	defer srv.Close()

	// Seed the live summary so readers have an entry from the start.
	coords, weights := genKeys(500, 91)
	if err := pushDirect(st, coords, weights); err != nil {
		t.Fatal(err)
	}
	if _, err := st.rotate(st.lives["net"], true); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var writers sync.WaitGroup

	// Writer: keeps pushing and rotating the live summary.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c, w := genKeys(200, uint64(1000+i))
			if err := pushDirect(st, c, w); err != nil {
				t.Error(err)
				return
			}
			if _, err := st.rotate(st.lives["net"], true); err != nil {
				t.Error(err)
				return
			}
			// Yield between rotations: the handoffs to and from the worker
			// (each push's send, each rotation's barrier marker) keep the
			// pair in the scheduler's next slot, and an unthrottled loop
			// starves the reader goroutines on one core.
			// ~1k entry swaps/s is still far beyond any real rotation rate.
			time.Sleep(time.Millisecond)
		}
	}()

	// Reloader: keeps rewriting and hot-reloading the file-backed summary.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			writeSummary(t, staticPath, buildSummary(t, uint64(20+i%3)))
			st.reload()
		}
	}()

	query := "/estimate?range=0:1023,0:1023&range=0:511,0:1023&range=512:1023,0:1023"
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			for i := 0; i < 60; i++ {
				for _, name := range []string{"net", "files"} {
					var got estimateResponse
					resp, err := http.Get(srv.URL + "/v1/summaries/" + name + query)
					if err != nil {
						t.Error(err)
						return
					}
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s: status %d", name, resp.StatusCode)
						resp.Body.Close()
						return
					}
					if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
						t.Error(err)
						resp.Body.Close()
						return
					}
					resp.Body.Close()
					if len(got.Estimates) != 3 {
						t.Errorf("%s: %d estimates", name, len(got.Estimates))
						return
					}
					if math.Float64bits(got.Estimates[0]) != math.Float64bits(got.Total) {
						t.Errorf("%s: torn read? full-domain %v != union total %v", name, got.Estimates[0], got.Total)
						return
					}
					if !xmath.AlmostEqual(got.Estimates[1]+got.Estimates[2], got.Estimates[0], 1e-9) {
						t.Errorf("%s: halves %v+%v != full %v", name, got.Estimates[1], got.Estimates[2], got.Estimates[0])
						return
					}
					rep, err := http.Get(srv.URL + "/v1/summaries/" + name + "/representatives?range=0:1023,0:1023&limit=5")
					if err != nil {
						t.Error(err)
						return
					}
					if rep.StatusCode != http.StatusOK {
						t.Errorf("%s: representatives status %d", name, rep.StatusCode)
						rep.Body.Close()
						return
					}
					io.Copy(io.Discard, rep.Body)
					rep.Body.Close()
				}
			}
		}(w)
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}

// TestServeUntilShutdownDrainsInflight: cancelling the serve context while
// a request is in flight lets the request finish (no dropped responses)
// and returns nil — the exit-0 contract of a SIGTERM shutdown.
func TestServeUntilShutdownDrainsInflight(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(started)
		<-release
		io.WriteString(w, "drained")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- serveUntilShutdown(ctx, &http.Server{Handler: h}, ln, t.Logf) }()

	got := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String())
		if err != nil {
			got <- "error: " + err.Error()
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		got <- fmt.Sprintf("%d %s", resp.StatusCode, body)
	}()

	<-started
	cancel() // SIGTERM equivalent: shutdown begins with the request in flight
	time.Sleep(20 * time.Millisecond)
	close(release)

	if body := <-got; body != "200 drained" {
		t.Fatalf("in-flight request got %q, want %q", body, "200 drained")
	}
	if err := <-served; err != nil {
		t.Fatalf("graceful shutdown returned %v, want nil", err)
	}
	// The listener is closed: new connections are refused.
	if _, err := http.Get("http://" + ln.Addr().String()); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

// TestLiveWALRecover is the in-process half of the durability contract:
// batches acknowledged under -wal-sync=interval survive a process that
// never snapshots. The first store is simply abandoned — no rotate, no
// close — which is what kill -9 leaves behind (the WAL bytes were handed
// to the kernel before each ack, so the file has them even though nothing
// was flushed on purpose). A second store over the same directory replays
// the tail into fresh builders, and its first snapshot is bitwise-equal
// to an offline Builder fed the same stream in ack order.
func TestLiveWALRecover(t *testing.T) {
	dir := t.TempDir()
	walCfg := liveConfig{
		size: liveTestCfg.Size, seed: liveTestCfg.Seed,
		dir: dir, walSync: wal.PolicyInterval,
	}
	st1 := newStore(nil, 4096, t.Logf)
	if err := st1.loadAll(); err != nil {
		t.Fatal(err)
	}
	if err := st1.initLive([]cliutil.Assignment{{Name: "net", Value: liveAxesSpec}}, walCfg); err != nil {
		t.Fatal(err)
	}
	coords, weights := genKeys(900, 51)
	for i := 0; i < 3; i++ {
		c := [][]uint64{coords[0][i*300 : (i+1)*300], coords[1][i*300 : (i+1)*300]}
		if err := pushDirect(st1, c, weights[i*300:(i+1)*300]); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon st1 here: the "restart" below must see only what the acks
	// already durably handed off. Its goroutines are reaped at cleanup,
	// after the recovered store has been verified.
	t.Cleanup(st1.closeWALs)
	t.Cleanup(st1.closeLive)

	st2 := newStore(nil, 4096, t.Logf)
	if err := st2.loadAll(); err != nil {
		t.Fatal(err)
	}
	if err := st2.initLive([]cliutil.Assignment{{Name: "net", Value: liveAxesSpec}}, walCfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st2.closeWALs)
	t.Cleanup(st2.closeLive)
	ls2 := st2.lives["net"]
	if got := ls2.accepted.Load(); got != 900 {
		t.Fatalf("replay accepted %d keys, want 900", got)
	}
	e, err := st2.rotate(ls2, true)
	if err != nil {
		t.Fatal(err)
	}
	if e.seq != 1 {
		t.Fatalf("recovered snapshot seq %d, want 1", e.seq)
	}

	axes, err := structure.ParseAxisSpec(liveAxesSpec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewBuilder(axes, liveTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.PushBatch(coords, weights); err != nil {
		t.Fatal(err)
	}
	want, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, box := range []structure.Range{
		{{Lo: 0, Hi: 1023}, {Lo: 0, Hi: 1023}},
		{{Lo: 0, Hi: 511}, {Lo: 512, Hi: 1023}},
		{{Lo: 300, Hi: 399}, {Lo: 0, Hi: 1023}},
	} {
		if math.Float64bits(e.idx.EstimateRange(box)) != math.Float64bits(want.EstimateRange(box)) {
			t.Fatalf("box %s: recovered %v, want %v", box, e.idx.EstimateRange(box), want.EstimateRange(box))
		}
	}
	// The snapshot covers window 0 completely, so its rotation truncated
	// every window-0 segment — st1's orphaned one included.
	old, err := filepath.Glob(filepath.Join(dir, "net-00000000-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(old) != 0 {
		t.Fatalf("window-0 wal segments survived the covering snapshot: %v", old)
	}
}

// walStore builds a store with one live summary "net" of sample size 2
// whose snapshots and interval-synced WAL live in dir.
func walStore(t *testing.T, dir string) *store {
	t.Helper()
	st := newStore(nil, 4096, t.Logf)
	if err := st.loadAll(); err != nil {
		t.Fatal(err)
	}
	cfg := liveConfig{size: 2, seed: liveTestCfg.Seed, dir: dir, walSync: wal.PolicyInterval}
	if err := st.initLive([]cliutil.Assignment{{Name: "net", Value: liveAxesSpec}}, cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.closeWALs)
	t.Cleanup(st.closeLive)
	return st
}

// walRecords counts the records in name's WAL segments under dir.
func walRecords(t *testing.T, dir string) int {
	t.Helper()
	dec := wire.Decoder{Dims: 2, MaxRows: maxKeysPerPush}
	stats, err := wal.Replay(dir, "net", 0, dec, func(*wire.Batch) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	return stats.Records
}

// TestIngestRefusesOverflowingTotal: a batch of finite weights whose sum
// overflows gets a 400 before it is logged, so it leaves no WAL record and
// no accepted key, and the summary keeps accepting and publishing.
func TestIngestRefusesOverflowingTotal(t *testing.T) {
	dir := t.TempDir()
	st := walStore(t, dir)
	srv := httptest.NewServer(st.handler())
	defer srv.Close()

	body, err := json.Marshal(pushRequest{Coords: [][]uint64{{0, 1, 2}, {0, 1, 2}}, Weights: []float64{1.7e308, 1.7e308, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, srv.URL+"/v1/summaries/net/keys", "application/json", body, nil); code != http.StatusBadRequest {
		t.Fatalf("overflowing batch: status %d, want 400", code)
	}
	if n := walRecords(t, dir); n != 0 {
		t.Fatalf("the refused batch left %d wal records", n)
	}
	if got := st.lives["net"].accepted.Load(); got != 0 {
		t.Fatalf("the refused batch counts %d accepted keys", got)
	}
	coords, weights := genKeys(50, 3)
	pushColumnar(t, srv.URL, coords, weights)
	var snap struct {
		Total float64 `json:"total_estimate"`
	}
	if code := postJSON(t, srv.URL+"/v1/summaries/net/snapshot", "application/json", nil, &snap); code != http.StatusOK {
		t.Fatalf("snapshot after the refusal: status %d, want 200", code)
	}
	var want float64
	for _, w := range weights {
		want += w
	}
	if math.Abs(snap.Total-want) > 1e-9*want {
		t.Fatalf("snapshot total %v, want %v", snap.Total, want)
	}
}

// TestIngestWeightBound: a batch just under maxLiveWeight is accepted and
// its snapshot publishes finite estimates; a batch that would take the
// accepted total past the bound gets a 400, though its sum is finite.
func TestIngestWeightBound(t *testing.T) {
	st := walStore(t, t.TempDir())
	srv := httptest.NewServer(st.handler())
	defer srv.Close()

	heavy := []float64{0.5 * maxLiveWeight, 0.4999 * maxLiveWeight, 1, 2}
	pushColumnar(t, srv.URL, [][]uint64{{0, 1, 2, 3}, {0, 1, 2, 3}}, heavy)
	var snap struct {
		Total float64 `json:"total_estimate"`
	}
	if code := postJSON(t, srv.URL+"/v1/summaries/net/snapshot", "application/json", nil, &snap); code != http.StatusOK {
		t.Fatalf("snapshot under the bound: status %d, want 200", code)
	}
	if math.IsInf(snap.Total, 0) || math.IsNaN(snap.Total) || snap.Total <= 0 {
		t.Fatalf("snapshot total %v is not a finite positive estimate", snap.Total)
	}
	// Every estimate, with its confidence bound, renders finite: a
	// non-finite one would be a 500.
	for _, q := range []string{"total", "estimate?range=0:1023,0:1023", "estimate?range=0:1023,0:1023&range=0:1,0:1", "estimate?range=2:3,2:3"} {
		getJSON(t, srv.URL+"/v1/summaries/net/"+q, http.StatusOK, nil)
	}
	body, err := json.Marshal(pushRequest{Coords: [][]uint64{{5}, {5}}, Weights: []float64{0.0002 * maxLiveWeight}})
	if err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, srv.URL+"/v1/summaries/net/keys", "application/json", body, nil); code != http.StatusBadRequest {
		t.Fatalf("batch past the bound: status %d, want 400", code)
	}
}

// TestWALReplayRefusesOverflowingTotal: replay checks the weight bound as
// admission does, so a log whose records sum past it fails recovery.
func TestWALReplayRefusesOverflowingTotal(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(wal.Options{Dir: dir, Name: "net", Policy: wal.PolicyInterval})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := log.Append([][]uint64{{1}, {1}}, []float64{0.6 * maxLiveWeight}); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	st := newStore(nil, 4096, t.Logf)
	cfg := liveConfig{size: 2, seed: liveTestCfg.Seed, dir: dir, walSync: wal.PolicyInterval}
	err = st.initLive([]cliutil.Assignment{{Name: "net", Value: liveAxesSpec}}, cfg)
	if !errors.Is(err, wal.ErrApply) || !strings.Contains(err.Error(), errWeightBound.Error()) {
		t.Fatalf("recovery of an overflowing wal: %v, want the weight bound", err)
	}
}

// TestSnapshotOfOverflowingBatchFails: a builder holding finite weights
// whose sum overflows cannot be summarized. Admission refuses such a batch,
// so the test pushes it into the builder directly, behind an acked batch;
// the forced snapshot after it answers 500, writes no snapshot file (which
// the reader would refuse) and truncates no WAL segment, so the acked keys
// stay logged.
func TestSnapshotOfOverflowingBatchFails(t *testing.T) {
	dir := t.TempDir()
	st := walStore(t, dir)
	srv := httptest.NewServer(st.handler())
	defer srv.Close()

	pushColumnar(t, srv.URL, [][]uint64{{3, 4}, {3, 4}}, []float64{2, 3})
	release := parkWorker(t, st.lives["net"])
	if err := st.lives["net"].b.PushBatch([][]uint64{{0, 1, 2}, {0, 1, 2}}, []float64{1.7e308, 1.7e308, 1}); err != nil {
		t.Fatal(err)
	}
	release()
	segments := func() []string {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(dir, "*.wal"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	before := segments()
	if len(before) == 0 {
		t.Fatal("no wal segment holds the acked batch")
	}
	if code := postJSON(t, srv.URL+"/v1/summaries/net/snapshot", "application/json", nil, nil); code != http.StatusInternalServerError {
		t.Fatalf("snapshot status %d, want 500", code)
	}
	if files, err := filepath.Glob(filepath.Join(dir, "*.sas")); err != nil || len(files) != 0 {
		t.Fatalf("snapshot files %v (%v), want none", files, err)
	}
	// The cut opened a new window; every segment of the old one stays.
	after := strings.Join(segments(), " ")
	for _, name := range before {
		if !strings.Contains(after, name) {
			t.Fatalf("wal segment %s truncated by the failed snapshot (left: %s)", name, after)
		}
	}
}

// TestReadyzGate: /readyz answers 503 until the store flips ready, while
// /healthz answers 200 the whole time — the distinction orchestrators
// gate traffic on during snapshot recovery and WAL replay.
func TestReadyzGate(t *testing.T) {
	st := newStore(nil, 4096, t.Logf)
	srv := httptest.NewServer(st.handler())
	defer srv.Close()

	status := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz before ready: %d, want 200", got)
	}
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before ready: %d, want 503", got)
	}
	st.ready.Store(true)
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz after ready: %d, want 200", got)
	}
}
