package main

// Ingest-plane benchmarks: the same 2^18-key stream pushed through the
// HTTP frame body and the HTTP JSON body, reported in keys/s so they
// compare directly with the root BenchmarkBuilderPushBatch ceiling (the
// in-process PushBatch rate the endpoint is trying to approach). An
// iteration ends once the worker has pushed every acked batch, so keys/s
// is the ingest rate, not the ack rate. Run with
//
//	go test -run '^$' -bench '^BenchmarkIngest' ./cmd/sasserve
//
// These are layer numbers for local comparison; perfbench measures the
// served ingest path end to end.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"structaware/internal/cliutil"
	"structaware/internal/structure"
	"structaware/internal/wal"
	"structaware/internal/wire"
	"structaware/internal/xmath"
)

const (
	benchKeys     = 1 << 18
	benchPerFrame = 4096
)

var (
	ingOnce    sync.Once
	ingCoords  [][]uint64
	ingWeights []float64
)

// ingestFixture is a 2^18-key heavy-tailed stream over the root benchmark's
// 2×10-bit domain.
func ingestFixture(b *testing.B) ([][]uint64, []float64) {
	b.Helper()
	ingOnce.Do(func() {
		r := xmath.NewRand(77)
		ingCoords = [][]uint64{make([]uint64, benchKeys), make([]uint64, benchKeys)}
		ingWeights = make([]float64, benchKeys)
		for i := 0; i < benchKeys; i++ {
			ingCoords[0][i], ingCoords[1][i] = r.Uint64()%1024, r.Uint64()%1024
			ingWeights[i] = math.Pow(1-r.Float64(), -0.6)
		}
	})
	return ingCoords, ingWeights
}

// benchBodies encodes the fixture, one body per benchPerFrame-key window.
func benchBodies(b *testing.B, encode func(coords [][]uint64, weights []float64) ([]byte, error)) [][]byte {
	b.Helper()
	coords, weights := ingestFixture(b)
	var bodies [][]byte
	for off := 0; off < len(weights); off += benchPerFrame {
		end := off + benchPerFrame
		body, err := encode([][]uint64{coords[0][off:end], coords[1][off:end]}, weights[off:end])
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

func frameBodies(b *testing.B) [][]byte {
	return benchBodies(b, func(coords [][]uint64, weights []float64) ([]byte, error) {
		return wire.AppendFrame(nil, coords, weights)
	})
}

func jsonBodies(b *testing.B) [][]byte {
	return benchBodies(b, func(coords [][]uint64, weights []float64) ([]byte, error) {
		return json.Marshal(pushRequest{Coords: coords, Weights: weights})
	})
}

// benchLiveStore builds a live store with the root benchmark's summary
// size and a queue deeper than the 64 frames of one iteration, so the
// benchmarks measure throughput, not 429 shedding. A non-empty dir keeps
// snapshots (and, unless pol is off, a write-ahead log) there.
func benchLiveStore(b *testing.B, dir string, pol wal.Policy) *store {
	b.Helper()
	st := newStore(nil, 4096, func(string, ...any) {})
	err := st.initLive(
		[]cliutil.Assignment{{Name: "net", Value: "bittrie:10,bittrie:10"}},
		liveConfig{size: 4096, seed: 1, queue: 4096, dir: dir, walSync: pol},
	)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(st.closeWALs)
	b.Cleanup(st.closeLive)
	return st
}

// benchIngestHTTP posts the bodies through the live /keys endpoint from
// producers concurrent clients, producer p sending bodies p, p+producers,
// and so on. Each iteration ends with a marker queued behind the last
// acked batch, so the clock runs until the worker has pushed them all and
// no backlog carries into the next iteration.
func benchIngestHTTP(b *testing.B, st *store, ctype string, bodies [][]byte, producers int) {
	srv := httptest.NewServer(st.handler())
	b.Cleanup(srv.Close)
	url := srv.URL + "/v1/summaries/net/keys"
	client := srv.Client()
	ls := st.lives["net"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for f := p; f < len(bodies); f += producers {
					resp, err := client.Post(url, ctype, bytes.NewReader(bodies[f]))
					if err != nil {
						b.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						b.Errorf("push status %d", resp.StatusCode)
						return
					}
				}
			}(p)
		}
		wg.Wait()
		if b.Failed() {
			b.FailNow()
		}
		parkWorker(b, ls)()
	}
	b.ReportMetric(float64(benchKeys)*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

// BenchmarkIngestHTTPFrame pushes the stream one binary frame per POST,
// from one producer and from two: the worker serializes only PushBatch,
// so a second producer overlaps its requests' transport and decode with
// the first's.
func BenchmarkIngestHTTPFrame(b *testing.B) {
	bodies := frameBodies(b)
	for _, producers := range []int{1, 2} {
		b.Run(fmt.Sprintf("producers=%d", producers), func(b *testing.B) {
			benchIngestHTTP(b, benchLiveStore(b, "", wal.PolicyOff), frameContentType, bodies, producers)
		})
	}
}

// BenchmarkIngestHTTPJSON is the baseline the binary frame is measured
// against: the same stream as columnar JSON bodies.
func BenchmarkIngestHTTPJSON(b *testing.B) {
	benchIngestHTTP(b, benchLiveStore(b, "", wal.PolicyOff), "application/json", jsonBodies(b), 1)
}

// BenchmarkIngestDecodeJSON isolates the server-side JSON decode +
// admission check into a pooled batch — the allocation trend of the JSON
// ingest path (run with -benchmem; the pooled buffers keep steady-state
// allocations to what encoding/json itself needs).
func BenchmarkIngestDecodeJSON(b *testing.B) {
	bodies := jsonBodies(b)
	axes := []structure.Axis{structure.BitTrieAxis(10), structure.BitTrieAxis(10)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			batch := getBatch()
			if err := decodeColumnarBody(body, batch); err != nil {
				b.Fatal(err)
			}
			if _, err := validateBatch(axes, &batch.Batch); err != nil {
				b.Fatal(err)
			}
			batch.release()
		}
	}
	b.ReportMetric(float64(benchKeys)*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

// BenchmarkIngestDecodeFrame is the frame-path counterpart of
// BenchmarkIngestDecodeJSON: decode + admission of the identical stream
// from binary frames (zero steady-state allocations — the contract pinned
// by the wire package's AllocsPerRun test).
func BenchmarkIngestDecodeFrame(b *testing.B) {
	bodies := frameBodies(b)
	axes := []structure.Axis{structure.BitTrieAxis(10), structure.BitTrieAxis(10)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			batch := getBatch()
			if err := decodeFrameBody(body, 2, batch); err != nil {
				b.Fatal(err)
			}
			if _, err := validateBatch(axes, &batch.Batch); err != nil {
				b.Fatal(err)
			}
			batch.release()
		}
	}
	b.ReportMetric(float64(benchKeys)*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

// BenchmarkIngestWAL prices the durability contract on the HTTP frame
// path: the BenchmarkIngestHTTPFrame/producers=1 stream against a store
// whose write-ahead log is off (the baseline), interval (write(2) before
// every ack, background fsync), and always (fsync before every ack). No
// rotation happens inside the timed region, so the numbers isolate the
// per-append WAL cost.
func BenchmarkIngestWAL(b *testing.B) {
	bodies := frameBodies(b)
	for _, pol := range []wal.Policy{wal.PolicyOff, wal.PolicyInterval, wal.PolicyAlways} {
		b.Run(pol.String(), func(b *testing.B) {
			b.SetBytes(int64(wire.FrameSize(2, benchPerFrame) * len(bodies)))
			benchIngestHTTP(b, benchLiveStore(b, b.TempDir(), pol), frameContentType, bodies, 1)
		})
	}
}
