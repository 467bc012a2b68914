package main

// Ingest-plane benchmarks: the same 2^18-key stream pushed through the
// binary frame socket, the HTTP frame body, and the HTTP JSON body, all
// reported in keys/s so they compare directly with the root
// BenchmarkBuilderPushBatch ceiling (the in-process PushBatch rate the
// transports are trying to approach). Run with
//
//	go test -run '^$' -bench '^BenchmarkIngest' ./cmd/sasserve
//
// `make bench-json` records them into the benchmark trajectory.

import (
	"bytes"
	"encoding/json"
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

// benchLiveStore builds a live store with the root benchmark's
// summary size, with queue depth comfortably above the frames in flight so
// the HTTP benchmarks measure throughput, not 429 shedding.
func benchLiveStore(b *testing.B) *store {
	b.Helper()
	st := newStore(nil, 4096, func(string, ...any) {})
	err := st.initLive(
		[]cliutil.Assignment{{Name: "net", Value: "bittrie:10,bittrie:10"}},
		liveConfig{size: 4096, seed: 1, queue: 4096},
	)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(st.closeLive)
	return st
}

// frameSlices cuts the fixture into per-frame column windows.
func frameSlices(coords [][]uint64, weights []float64) ([][][]uint64, [][]float64) {
	var cs [][][]uint64
	var ws [][]float64
	for off := 0; off < len(weights); off += benchPerFrame {
		end := off + benchPerFrame
		cs = append(cs, [][]uint64{coords[0][off:end], coords[1][off:end]})
		ws = append(ws, weights[off:end])
	}
	return cs, ws
}

// BenchmarkIngestWire drives the fixture over a real TCP socket as binary
// frames, one Dial per iteration, with the end-of-stream ack inside the
// timed region — the full wire-ingest round trip, client encode to builder
// push.
func BenchmarkIngestWire(b *testing.B) {
	coords, weights := ingestFixture(b)
	cs, ws := frameSlices(coords, weights)
	st := benchLiveStore(b)
	is, err := listenIngest(st, "127.0.0.1:0", func(string, ...any) {})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(is.close)
	addr := is.addr().String()
	b.SetBytes(int64(wire.FrameSize(2, benchPerFrame) * len(ws)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := wire.Dial(addr, "net")
		if err != nil {
			b.Fatal(err)
		}
		for f := range ws {
			if err := c.Send(cs[f], ws[f]); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := c.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchKeys)*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

// benchIngestHTTP posts one pre-encoded body per frame window through the
// live /keys endpoint.
func benchIngestHTTP(b *testing.B, ctype string, bodies [][]byte) {
	st := benchLiveStore(b)
	srv := httptest.NewServer(st.handler())
	b.Cleanup(srv.Close)
	url := srv.URL + "/v1/summaries/net/keys"
	client := srv.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			resp, err := client.Post(url, ctype, bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("push status %d", resp.StatusCode)
			}
			_, _ = jsonDiscard(resp)
		}
	}
	b.ReportMetric(float64(benchKeys)*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

// jsonDiscard drains and closes a response body (keep-alive reuse).
func jsonDiscard(resp *http.Response) (int64, error) {
	defer resp.Body.Close()
	var buf [512]byte
	n := int64(0)
	for {
		m, err := resp.Body.Read(buf[:])
		n += int64(m)
		if err != nil {
			return n, nil
		}
	}
}

// BenchmarkIngestHTTPFrame: the same stream as BenchmarkIngestWire, but one
// frame per HTTP POST — what the binary body saves before leaving HTTP
// behind entirely.
func BenchmarkIngestHTTPFrame(b *testing.B) {
	coords, weights := ingestFixture(b)
	cs, ws := frameSlices(coords, weights)
	var bodies [][]byte
	for f := range ws {
		frame, err := wire.AppendFrame(nil, cs[f], ws[f])
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, frame)
	}
	benchIngestHTTP(b, frameContentType, bodies)
}

// BenchmarkIngestHTTPJSON is the pre-existing ingest path and the baseline
// the binary paths are measured against: the same stream as columnar JSON
// bodies.
func BenchmarkIngestHTTPJSON(b *testing.B) {
	coords, weights := ingestFixture(b)
	cs, ws := frameSlices(coords, weights)
	var bodies [][]byte
	for f := range ws {
		body, err := json.Marshal(pushRequest{Coords: cs[f], Weights: ws[f]})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	benchIngestHTTP(b, "application/json", bodies)
}

// BenchmarkIngestDecodeJSON isolates the server-side JSON decode +
// admission check into a pooled batch — the allocation trend of the JSON
// ingest path (run with -benchmem; the pooled buffers keep steady-state
// allocations to what encoding/json itself needs).
func BenchmarkIngestDecodeJSON(b *testing.B) {
	coords, weights := ingestFixture(b)
	cs, ws := frameSlices(coords, weights)
	axes := []structure.Axis{structure.BitTrieAxis(10), structure.BitTrieAxis(10)}
	var bodies [][]byte
	for f := range ws {
		body, err := json.Marshal(pushRequest{Coords: cs[f], Weights: ws[f]})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			batch := getBatch()
			if err := decodeColumnarBody(body, batch); err != nil {
				b.Fatal(err)
			}
			if err := validateBatch(axes, &batch.Batch); err != nil {
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
	coords, weights := ingestFixture(b)
	cs, ws := frameSlices(coords, weights)
	axes := []structure.Axis{structure.BitTrieAxis(10), structure.BitTrieAxis(10)}
	var bodies [][]byte
	for f := range ws {
		frame, err := wire.AppendFrame(nil, cs[f], ws[f])
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, frame)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			batch := getBatch()
			if err := decodeFrameBody(body, 2, batch); err != nil {
				b.Fatal(err)
			}
			if err := validateBatch(axes, &batch.Batch); err != nil {
				b.Fatal(err)
			}
			batch.release()
		}
	}
	b.ReportMetric(float64(benchKeys)*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

// BenchmarkIngestWAL prices the durability contract on the socket path:
// the BenchmarkIngestWire stream against a store whose write-ahead log is
// off (PR 7 behavior — the baseline the 2× acceptance bound is measured
// from), interval (write(2) before every ack, background fsync), and
// always (fsync before every ack). No rotation happens inside the timed
// region, so the numbers isolate the per-append WAL cost.
func BenchmarkIngestWAL(b *testing.B) {
	coords, weights := ingestFixture(b)
	cs, ws := frameSlices(coords, weights)
	for _, pol := range []wal.Policy{wal.PolicyOff, wal.PolicyInterval, wal.PolicyAlways} {
		b.Run(pol.String(), func(b *testing.B) {
			st := newStore(nil, 4096, func(string, ...any) {})
			err := st.initLive(
				[]cliutil.Assignment{{Name: "net", Value: "bittrie:10,bittrie:10"}},
				liveConfig{
					size: 4096, seed: 1, queue: 4096,
					dir: b.TempDir(), walSync: pol,
				},
			)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(st.closeWALs)
			b.Cleanup(st.closeLive)
			is, err := listenIngest(st, "127.0.0.1:0", func(string, ...any) {})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(is.close)
			addr := is.addr().String()
			b.SetBytes(int64(wire.FrameSize(2, benchPerFrame) * len(ws)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := wire.Dial(addr, "net")
				if err != nil {
					b.Fatal(err)
				}
				for f := range ws {
					if err := c.Send(cs[f], ws[f]); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := c.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(benchKeys)*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
		})
	}
}
