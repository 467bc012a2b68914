// Command sasbench regenerates the figures of the paper's evaluation (§6)
// and the validation experiments from DESIGN.md, printing tab-separated
// series.
//
// Usage:
//
//	sasbench -exp fig2a [-scale 0.1] [-queries 50] [-seed 1] [-o out.tsv]
//	sasbench -exp all -scale 0.05
//	sasbench -backends backends.json [-backend-size 1000] [-scale 0.05]
//	sasbench -ingest http://127.0.0.1:8337 -ingest-name flows [-ingest-keys 1000000]
//	sasbench -load http://127.0.0.1:8337 -load-name net [-load-mix area,hot]
//	          [-load-conc 4,16] [-load-duration 3s] [-load-out load.json]
//	sasbench -list
//
// Scale 1.0 reproduces the paper's dataset cardinalities (196K network
// pairs, 500K ticket records); smaller scales keep the comparison shapes at
// a fraction of the runtime.
//
// -backends runs the head-to-head backend comparison instead of a figure:
// every backend kind (sample, qdigest, wavelet, sketch) is built at the
// same element budget (-backend-size) over the network and tickets
// datasets and scored on uniform-area and uniform-weight batteries — mean
// and max relative error against exact answers plus single-threaded query
// throughput — written as JSON (see internal/expt.BackendsReport). The
// sketch keeps at least one counter per row per dyadic level pair, so on a
// fine grid it can exceed the budget.
//
// -ingest floods a sasserve's HTTP ingest endpoint (an http:// or https://
// base URL) with binary frames of seeded synthetic keys, one frame per
// POST /v1/summaries/{name}/keys, and reports the server-acknowledged
// throughput. It doubles as a load generator for the smoke script's
// back-pressure probe.
//
// -load is the read-side counterpart: replay seeded query mixes against a
// running sasserve at each -load-conc concurrency level for -load-duration,
// reporting qps and p50/p99/p999 latency per cell (TSV to stdout, JSON via
// -load-out). Mixes: "area" cycles uniform-area boxes over the summary's
// domain; "hot" Zipf-concentrates traffic on a small range pool (the answer
// cache's best case); "hot-nocache" replays the identical hot sequence with
// cache=off, so cache effect = hot vs hot-nocache.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"time"

	"structaware/internal/cliutil"
	"structaware/internal/expt"
	"structaware/internal/wire"
	"structaware/internal/xmath"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (fig2a..fig4c, v1..v5, par, or 'all')")
		scale    = flag.Float64("scale", 1.0, "dataset scale factor (1.0 = paper scale)")
		queries  = flag.Int("queries", 50, "queries per configuration")
		seed     = flag.Uint64("seed", 1, "random seed")
		out      = flag.String("o", "", "output file (default stdout)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		workers  = flag.Int("workers", 0, "worker cap for the 'par' experiment (0 = all CPUs)")
		backends = flag.String("backends", "", "write the head-to-head backend comparison as JSON to this file ('-' = stdout)")
		beSize   = flag.Int("backend-size", 1000, "element budget per backend in the -backends comparison")
		ingest   = flag.String("ingest", "", "flood a sasserve base URL (http://host:port) with binary frames over HTTP")
		ingName  = flag.String("ingest-name", "flows", "live summary name to push to in -ingest mode")
		ingKeys  = flag.Int("ingest-keys", 1_000_000, "total keys to push in -ingest mode")
		ingBatch = flag.Int("ingest-batch", 4096, "keys per frame in -ingest mode")
		ingDims  = flag.Int("ingest-dims", 2, "coordinate dimensions in -ingest mode")
		ingBits  = flag.Int("ingest-bits", 12, "bits per coordinate in -ingest mode")
		load     = flag.String("load", "", "replay query load against a sasserve base URL (http://host:port)")
		loadName = flag.String("load-name", "net", "summary to query in -load mode")
		loadMix  = flag.String("load-mix", "area,hot", "comma-separated query mixes in -load mode (area, hot, hot-nocache)")
		loadConc = flag.String("load-conc", "4,16", "comma-separated concurrency levels in -load mode")
		loadDur  = flag.Duration("load-duration", 3*time.Second, "duration of each (mix, concurrency) cell in -load mode")
		loadOut  = flag.String("load-out", "", "write -load results as JSON to this file")
	)
	flag.Parse()
	tool := cliutil.New("sasbench")

	if *list {
		for _, n := range expt.RunnerNames() {
			fmt.Println(n)
		}
		return
	}
	tool.CheckUsage(cliutil.FirstError(
		cliutil.PositiveFloat("-scale", *scale),
		cliutil.Positive("-queries", *queries),
		cliutil.NonNegative("-workers", *workers),
		cliutil.Positive("-backend-size", *beSize),
		cliutil.Positive("-ingest-keys", *ingKeys),
		cliutil.Positive("-ingest-batch", *ingBatch),
		cliutil.Positive("-ingest-dims", *ingDims),
		cliutil.Positive("-ingest-bits", *ingBits),
	))
	if *ingest != "" {
		// Frames travel only as HTTP requests: catch a bare host:port here,
		// as a usage error, not later as a runtime failure in http.Post.
		if !strings.HasPrefix(*ingest, "http://") && !strings.HasPrefix(*ingest, "https://") {
			tool.Usagef("-ingest %q: want the server's http:// or https:// base URL", *ingest)
		}
		tool.Check(runIngest(*ingest, *ingName, *ingKeys, newKeyGen(*seed, *ingDims, *ingBits, *ingBatch)))
		return
	}
	if *load != "" {
		if *loadDur <= 0 {
			tool.Usagef("-load-duration must be positive")
		}
		tool.Check(runLoad(*load, *loadName, *loadMix, *loadConc, *loadDur, *loadOut, *seed))
		return
	}
	if *backends != "" {
		opts := expt.Options{Scale: *scale, Queries: *queries, Seed: *seed}
		rep, err := expt.CompareBackends(opts, *beSize)
		tool.Check(err)
		raw, err := json.MarshalIndent(rep, "", "  ")
		tool.Check(err)
		raw = append(raw, '\n')
		if *backends == "-" {
			_, err = os.Stdout.Write(raw)
		} else {
			err = os.WriteFile(*backends, raw, 0o644)
		}
		tool.Check(err)
		return
	}
	if *exp == "" {
		tool.Usagef("-exp is required (use -list to see ids, or -backends for the comparison)")
	}

	var w io.Writer = os.Stdout
	var f *os.File
	if *out != "" {
		var err error
		f, err = os.Create(*out)
		tool.Check(err)
		w = f
	}

	opts := expt.Options{Scale: *scale, Queries: *queries, Seed: *seed, Out: w, Workers: *workers}
	names := []string{*exp}
	if *exp == "all" {
		names = expt.RunnerNames()
	}
	for _, name := range names {
		run, ok := expt.Runners[name]
		if !ok {
			tool.Usagef("unknown experiment %q", name)
		}
		start := time.Now()
		fmt.Fprintf(w, "## experiment %s (scale %g, seed %d)\n", name, *scale, *seed)
		if err := run(opts); err != nil {
			tool.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(w, "## %s done in %v\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	if f != nil {
		tool.Check(f.Close())
	}
}

// runIngest posts n generated keys as application/x-sas-frame bodies and
// prints the server-acknowledged rate, retrying each frame on 429 after
// the advertised Retry-After — or, when the server sends no usable hint,
// after a capped exponential backoff with jitter whose first wait is never
// below one second.
func runIngest(base, name string, n int, gen *keyGen) error {
	url := strings.TrimRight(base, "/") + "/v1/summaries/" + name + "/keys"
	keys, frames, retries := 0, 0, 0
	bo := wire.Backoff{Base: 2 * time.Second, Max: 30 * time.Second}
	start := time.Now()
	for sent := 0; sent < n; sent += gen.batch {
		rows := min(gen.batch, n-sent)
		cols, ws := gen.next(rows)
		frame, err := wire.AppendFrame(nil, cols, ws)
		if err != nil {
			return err
		}
		for {
			resp, err := http.Post(url, wire.ContentType, bytes.NewReader(frame))
			if err != nil {
				return err
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				retries++
				sleepFn(wire.RetryAfter(resp.Header.Get("Retry-After"), bo.Next()))
				continue
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
			}
			bo.Reset()
			break
		}
		keys += rows
		frames++
	}
	elapsed := time.Since(start)
	fmt.Printf("ingest %s: %d keys in %d frames (%d retried), weight %.6g, %v (%.0f keys/s)\n",
		name, keys, frames, retries, gen.total,
		elapsed.Round(time.Millisecond), float64(keys)/elapsed.Seconds())
	return nil
}

// sleepFn is swapped by tests to observe backoff without real sleeping.
var sleepFn = time.Sleep

// keyGen produces seeded heavy-tailed batches over a [0, 2^bits)^dims
// domain, reusing its column buffers across calls.
type keyGen struct {
	r      *xmath.SplitMix
	domain uint64
	batch  int
	coords [][]uint64
	cols   [][]uint64
	ws     []float64
	total  float64
}

func newKeyGen(seed uint64, dims, bits, batch int) *keyGen {
	g := &keyGen{
		r:      xmath.NewRand(seed),
		domain: uint64(1) << bits,
		batch:  batch,
		coords: make([][]uint64, dims),
		cols:   make([][]uint64, dims),
		ws:     make([]float64, batch),
	}
	for d := range g.coords {
		g.coords[d] = make([]uint64, batch)
	}
	return g
}

func (g *keyGen) next(rows int) ([][]uint64, []float64) {
	for i := 0; i < rows; i++ {
		for d := range g.coords {
			g.coords[d][i] = g.r.Uint64() % g.domain
		}
		w := math.Pow(1-g.r.Float64(), -0.6)
		g.ws[i] = w
		g.total += w
	}
	for d := range g.cols {
		g.cols[d] = g.coords[d][:rows]
	}
	return g.cols, g.ws[:rows]
}
