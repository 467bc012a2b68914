package main

// Tests for the ingest plane: binary frames over HTTP, the one live
// builder behind the /keys endpoint and its rotation barrier, and the
// bounded-queue 429 contract.

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
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

// queueStore builds a store with one live summary "net" over the usual
// 2×10-bit domain, with an explicit ingest queue depth.
func queueStore(t *testing.T, queue int) *store {
	t.Helper()
	st := newStore(nil, 4096, t.Logf)
	err := st.initLive(
		[]cliutil.Assignment{{Name: "net", Value: liveAxesSpec}},
		liveConfig{size: liveTestCfg.Size, seed: liveTestCfg.Seed, queue: queue},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.closeLive)
	return st
}

// parkWorker queues a barrier marker the way cutBarrier does and returns
// once the worker has parked on it: every batch queued before the call has
// been pushed, and until release the worker consumes nothing, so the queue
// fills deterministically. release is idempotent and also runs at cleanup,
// ahead of the store's closeLive, so a failing test never leaves the
// worker parked.
func parkWorker(t testing.TB, ls *liveSummary) (release func()) {
	t.Helper()
	done, resume := make(chan struct{}), make(chan struct{})
	ls.walMu.Lock()
	ls.q <- ingestJob{done: done, resume: resume}
	ls.walMu.Unlock()
	<-done
	release = sync.OnceFunc(func() { close(resume) })
	t.Cleanup(release)
	return release
}

// postFrame pushes one batch as a binary frame over HTTP and returns the
// response status (decoding the push response into pr when non-nil).
func postFrame(t *testing.T, url string, coords [][]uint64, weights []float64, pr *pushResponse) int {
	t.Helper()
	frame, err := wire.AppendFrame(nil, coords, weights)
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if pr != nil {
		v = pr
	}
	return postJSON(t, url+"/v1/summaries/net/keys", frameContentType, frame, v)
}

// TestIngestFrameHTTP: a binary frame pushed over HTTP lands in the same
// builder state as the JSON body — the published snapshot is bit-identical
// to an offline Builder fed the same stream.
func TestIngestFrameHTTP(t *testing.T) {
	st := liveStore(t, "")
	srv := httptest.NewServer(st.handler())
	defer srv.Close()

	coords, weights := genKeys(2500, 51)
	var pr pushResponse
	if code := postFrame(t, srv.URL, coords, weights, &pr); code != http.StatusOK {
		t.Fatalf("frame push status %d", code)
	}
	if pr.Pushed != 2500 || pr.TotalPushed != 2500 {
		t.Fatalf("push response %+v", pr)
	}
	if _, err := st.rotate(st.lives["net"], true); err != nil {
		t.Fatal(err)
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
	e, _ := st.get("net")
	full := structure.Range{{Lo: 0, Hi: 1023}, {Lo: 0, Hi: 1023}}
	if math.Float64bits(e.be.EstimateRange(full)) != math.Float64bits(want.EstimateRange(full)) {
		t.Fatalf("frame-fed snapshot %v, offline builder %v", e.be.EstimateRange(full), want.EstimateRange(full))
	}

	// Frame rejection paths ride the same decode-error plumbing as JSON.
	frame, err := wire.AppendFrame(nil, coords, weights)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"corrupt frame":   append([]byte("XXXX"), frame[4:]...),
		"truncated frame": frame[:len(frame)-3],
		"trailing bytes":  append(append([]byte(nil), frame...), 0),
	} {
		if code := postJSON(t, srv.URL+"/v1/summaries/net/keys", frameContentType, body, nil); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, code)
		}
	}
	// Out-of-domain coordinates decode fine but fail admission.
	bad, err := wire.AppendFrame(nil, [][]uint64{{5000}, {1}}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, srv.URL+"/v1/summaries/net/keys", frameContentType, bad, nil); code != http.StatusBadRequest {
		t.Fatalf("out-of-domain frame: status %d, want 400", code)
	}
}

// TestConcurrentProducersMatchOneBuilder is the determinism contract of
// the one-builder write path: four goroutines push frames concurrently over
// HTTP into a store with a WAL, and the forced snapshot is, in SAS2 bytes,
// exactly the summary of one offline Builder fed a copy of the WAL in
// replay order. WAL append and queue send happen together under walMu, so
// the WAL order is the order the batches reached the builder, whatever the
// producers' interleaving.
func TestConcurrentProducersMatchOneBuilder(t *testing.T) {
	dir := t.TempDir()
	st := newStore(nil, 4096, t.Logf)
	err := st.initLive(
		[]cliutil.Assignment{{Name: "net", Value: liveAxesSpec}},
		liveConfig{size: liveTestCfg.Size, seed: liveTestCfg.Seed, dir: dir, walSync: wal.PolicyInterval},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.closeWALs)
	t.Cleanup(st.closeLive)
	srv := httptest.NewServer(st.handler())
	defer srv.Close()

	const producers, frames, per = 4, 25, 100
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for f := 0; f < frames; f++ {
				c, w := genKeys(per, uint64(1000*p+f))
				frame, err := wire.AppendFrame(nil, c, w)
				if err != nil {
					t.Error(err)
					return
				}
				// At most one request per producer is in flight, far below
				// the default queue depth, so every push is accepted.
				resp, err := http.Post(srv.URL+"/v1/summaries/net/keys", frameContentType, bytes.NewReader(frame))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("producer %d frame %d: status %d", p, f, resp.StatusCode)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Every push was acked, so every record is in the WAL. Copy it before
	// the snapshot truncates it.
	walCopy := t.TempDir()
	segs, err := filepath.Glob(filepath.Join(dir, "net-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("wal segments %v, %v", segs, err)
	}
	for _, seg := range segs {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(walCopy, filepath.Base(seg)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	e, err := st.rotate(st.lives["net"], true)
	if err != nil {
		t.Fatal(err)
	}
	if e.pushed != producers*frames*per {
		t.Fatalf("entry pushed %d, want %d", e.pushed, producers*frames*per)
	}

	axes, err := structure.ParseAxisSpec(liveAxesSpec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewBuilder(axes, liveTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	dec := wire.Decoder{Dims: len(axes), MaxRows: maxKeysPerPush}
	stats, err := wal.Replay(walCopy, "net", 0, dec, func(bt *wire.Batch) error {
		return b.PushBatch(bt.Coords, bt.Weights)
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != producers*frames || stats.Torn {
		t.Fatalf("wal copy replayed %+v, want %d whole records", stats, producers*frames)
	}
	want, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wantRaw, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	persisted, err := os.ReadFile(e.path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(persisted, wantRaw) {
		t.Fatal("persisted snapshot differs in SAS2 bytes from one Builder fed the WAL in replay order")
	}
	served, err := e.sample().Summary().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, wantRaw) {
		t.Fatal("served snapshot differs in SAS2 bytes from one Builder fed the WAL in replay order")
	}
}

// TestSnapshotPushedExcludesKeysBehindBarrier pins the provenance count a
// snapshot reports (its entry's pushed, shown by the snapshot response and
// the metadata): the keys ahead of rotation's barrier marker, which are
// exactly the keys the snapshot holds — not batches acked while the
// rotation waited for the worker. The interleaving is forced: the worker
// is parked on a marker, rotate queues its barrier behind it, a batch is
// acked behind the barrier, and only then does the worker move on.
func TestSnapshotPushedExcludesKeysBehindBarrier(t *testing.T) {
	st := liveStore(t, "")
	ls := st.lives["net"]
	aheadC, aheadW := genKeys(300, 83)
	if err := pushDirect(st, aheadC, aheadW); err != nil {
		t.Fatal(err)
	}
	release := parkWorker(t, ls)

	type rotation struct {
		e   *entry
		err error
	}
	rotated := make(chan rotation, 1)
	go func() {
		e, err := st.rotate(ls, true)
		rotated <- rotation{e, err}
	}()
	// The parked worker consumes nothing, so a queued job is rotate's
	// barrier marker, sent under walMu: the push below waits for walMu and
	// lands behind it.
	deadline := time.Now().Add(5 * time.Second)
	for len(ls.q) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("rotate never queued its barrier marker")
		}
		time.Sleep(time.Millisecond)
	}
	behindC, behindW := genKeys(200, 84)
	if err := pushDirect(st, behindC, behindW); err != nil {
		t.Fatal(err)
	}
	release()
	r := <-rotated
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.e.pushed != int64(len(aheadW)) {
		t.Fatalf("snapshot reports %d keys pushed, want the %d ahead of its barrier", r.e.pushed, len(aheadW))
	}
	exact := 0.0
	for _, w := range aheadW {
		exact += w
	}
	if got := r.e.be.EstimateTotal(); !xmath.AlmostEqual(got, exact, 1e-6) {
		t.Fatalf("snapshot total %v, want ~%v (only the keys ahead of the barrier)", got, exact)
	}

	// The batch behind the barrier is in the next epoch.
	e2, err := st.rotate(ls, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(aheadW) + len(behindW)); e2.pushed != want {
		t.Fatalf("next snapshot reports %d keys pushed, want %d", e2.pushed, want)
	}
}

// TestIngestQueueFull is the backpressure contract: with the worker parked
// on a barrier marker and the one queue slot filled, a further HTTP push
// answers 429 with a Retry-After hint, and the accepted batches — and only
// those — survive into the next snapshot.
func TestIngestQueueFull(t *testing.T) {
	st := queueStore(t, 1)
	srv := httptest.NewServer(st.handler())
	defer srv.Close()
	ls := st.lives["net"]

	c1, w1 := genKeys(100, 81)
	if code := postFrame(t, srv.URL, c1, w1, nil); code != http.StatusOK {
		t.Fatalf("first push status %d", code)
	}
	// Park the worker behind the first batch; the second fills the one
	// queue slot.
	release := parkWorker(t, ls)
	c2, w2 := genKeys(100, 82)
	if code := postFrame(t, srv.URL, c2, w2, nil); code != http.StatusOK {
		t.Fatalf("second push status %d", code)
	}

	frame, err := wire.AppendFrame(nil, c1, w1)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/summaries/net/keys", frameContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated push status %d, want 429", resp.StatusCode)
	}
	// The hint must be a parseable positive whole number of seconds —
	// sasbench's client treats zero or garbage as a misbehaving server and
	// falls back to its own floor, so a regression here would silently
	// disable the advertised back-pressure.
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs <= 0 {
		t.Fatalf("429 Retry-After %q is not a positive integer of seconds", ra)
	}

	// Release the worker: both accepted batches (and nothing else) land.
	release()
	e, err := st.rotate(ls, true)
	if err != nil {
		t.Fatal(err)
	}
	if e.pushed != int64(len(w1)+len(w2)) {
		t.Fatalf("snapshot covers %d keys, want %d", e.pushed, len(w1)+len(w2))
	}
	exact := 0.0
	for _, w := range append(append([]float64(nil), w1...), w2...) {
		exact += w
	}
	if got := e.be.EstimateTotal(); !xmath.AlmostEqual(got, exact, 1e-6) {
		t.Fatalf("post-429 total %v, want ~%v (the rejected batch must not leak in)", got, exact)
	}
}

// TestIngestSocketErrors: the connection-level error contract of a binary
// frame push. A frame for an unknown summary is a 404 that names it; a good
// frame with garbage after it is rejected whole, so none of its keys reach
// the builder; the same frame sent alone lands; and after closeLive a push
// answers 503 instead of hanging.
func TestIngestSocketErrors(t *testing.T) {
	st := liveStore(t, "")
	srv := httptest.NewServer(st.handler())
	defer srv.Close()

	push := func(name string, body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/summaries/"+name+"/keys", frameContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(raw)
	}
	good, err := wire.AppendFrame(nil, [][]uint64{{1, 2}, {3, 4}}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}

	if code, msg := push("nosuch", good); code != http.StatusNotFound || !strings.Contains(msg, "no live summary") {
		t.Fatalf("unknown-summary push: status %d, body %q", code, msg)
	}

	withGarbage := append(good[:len(good):len(good)], "garbage-not-a-frame"...)
	if code, msg := push("net", withGarbage); code != http.StatusBadRequest || !strings.Contains(msg, "after a") {
		t.Fatalf("frame-then-garbage push: status %d, body %q", code, msg)
	}
	if code, msg := push("net", good); code != http.StatusOK {
		t.Fatalf("good frame push: status %d, body %q", code, msg)
	}
	e, err := st.rotate(st.lives["net"], true)
	if err != nil {
		t.Fatal(err)
	}
	if e.pushed != 2 {
		t.Fatalf("snapshot covers %d keys, want the 2 from the one accepted frame", e.pushed)
	}

	st.closeLive()
	if code, msg := push("net", good); code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown push: status %d, body %q, want 503", code, msg)
	}
}
