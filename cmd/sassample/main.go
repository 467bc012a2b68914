// Command sassample draws a structure-aware VarOpt sample from a CSV of
// weighted 2-D keys ("x,y,weight" rows; lines starting with '#' are
// comments) and writes the sampled keys with their Horvitz–Thompson
// adjusted weights. It also serializes summaries, merges serialized shard
// summaries, ingests unbounded streams from stdin, and answers box queries
// from a sample.
//
// Usage:
//
//	sassample -in data.csv -s 1000 -bits 20 -o sample.csv
//	sassample -in data.csv -s 1000 -query 0:1023:0:1023
//	sassample -in data.csv -s 1000 -method obliv
//	sassample -in data.csv -s 1000 -workers 8
//
// Summary lifecycle (build shards out-of-process, persist, ship, merge):
//
//	sassample -in shard0.csv -s 1000 -dump shard0.sas
//	cat shard1.csv | sassample -in - -s 1000 -dump shard1.sas
//	sassample -merge shard0.sas,shard1.sas -s 1000 -o merged.csv
//
// With -in - the rows are streamed from stdin through the Builder pipeline:
// working memory stays bounded (-buffer keys, default 5×s) no matter how
// long the stream is, so the input never needs to fit in memory.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"structaware/internal/cliutil"
	"structaware/internal/core"
	"structaware/internal/structure"
	"structaware/internal/twopass"
)

func main() {
	var (
		in      = flag.String("in", "", "input CSV (x,y,weight per row); '-' streams from stdin")
		merge   = flag.String("merge", "", "comma-separated serialized summaries to merge (instead of -in)")
		out     = flag.String("o", "", "output CSV (default stdout)")
		dump    = flag.String("dump", "", "write the summary in serialized binary form to this path")
		s       = flag.Int("s", 1000, "sample size")
		bits    = flag.Int("bits", 20, "domain bits per axis")
		method  = flag.String("method", "aware", "aware | aware2p | obliv | poisson")
		seed    = flag.Uint64("seed", 1, "random seed")
		query   = flag.String("query", "", "optional box query x1:x2,y1:y2 to estimate (legacy x1:x2:y1:y2 also accepted)")
		workers = flag.Int("workers", 1, "parallel sampling shards (0 = all CPUs, 1 = serial)")
		buffer  = flag.Int("buffer", 0, "streaming buffer in keys for -in - (0 = 5*s)")
	)
	flag.Parse()
	tool := cliutil.New("sassample")
	if (*in == "") == (*merge == "") {
		tool.Usagef("exactly one of -in or -merge is required")
	}
	tool.CheckUsage(cliutil.FirstError(
		cliutil.Positive("-s", *s),
		cliutil.InRange("-bits", *bits, 1, 63),
		cliutil.NonNegative("-workers", *workers),
		cliutil.NonNegative("-buffer", *buffer),
	))
	m, err := parseMethod(*method)
	tool.CheckUsage(err)
	cfg := core.Config{Size: *s, Method: m, Seed: *seed, Buffer: *buffer}

	var sum *core.Summary
	exact := func(structure.Range) (float64, bool) { return 0, false }
	switch {
	case *merge != "":
		sum, err = mergeSummaries(strings.Split(*merge, ","), *s, *seed)
		tool.Check(err)
	case *in == "-":
		// NewBuilder rejects non-streamable configurations (method without
		// a streaming pipeline, buffer below the sample size) — those are
		// flag mistakes, hence usage errors.
		axes := []structure.Axis{structure.BitTrieAxis(*bits), structure.BitTrieAxis(*bits)}
		b, err := core.NewBuilder(axes, cfg)
		tool.CheckUsage(err)
		sum, err = buildStream(os.Stdin, b)
		tool.Check(err)
	default:
		ds, err := readCSV(*in, *bits)
		tool.Check(err)
		sum, err = core.SampleParallel(ds, cfg, *workers)
		tool.Check(err)
		exact = func(box structure.Range) (float64, bool) { return ds.RangeSum(box), true }
	}

	if *dump != "" {
		tool.Check(writeSummaryFile(*dump, sum))
	}
	switch {
	case *query != "":
		box, err := parseBox(*query)
		tool.CheckUsage(err)
		if ex, ok := exact(box); ok {
			fmt.Printf("exact=%g estimate=%g (summary size %d, tau %g)\n",
				ex, sum.EstimateRange(box), sum.Size(), sum.Tau)
		} else {
			fmt.Printf("estimate=%g (summary size %d, tau %g; exact unavailable without the dataset)\n",
				sum.EstimateRange(box), sum.Size(), sum.Tau)
		}
	case *dump == "" || *out != "":
		// CSV goes to stdout by default, but not as a side effect of -dump
		// alone; an explicit -o always gets the CSV too.
		tool.Check(writeCSV(*out, sum))
	}
}

// mergeSummaries loads serialized shard summaries and merges them to size s.
func mergeSummaries(paths []string, s int, seed uint64) (*core.Summary, error) {
	sums := make([]*core.Summary, 0, len(paths))
	for _, path := range paths {
		path = strings.TrimSpace(path)
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sum, err := core.ReadSummary(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		sums = append(sums, sum)
	}
	return core.MergeSummaries(s, seed, sums...)
}

// buildStream ingests CSV rows from r through the streaming Builder
// pipeline (bounded memory), using the same row parser as file input.
func buildStream(r io.Reader, b *core.Builder) (*core.Summary, error) {
	src, err := twopass.NewReaderSource(r, 2)
	if err != nil {
		return nil, err
	}
	for {
		pt, w, ok, err := src.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := b.Push(pt, w); err != nil {
			return nil, err
		}
	}
	return b.Finalize()
}

// writeSummaryFile serializes the summary to path.
func writeSummaryFile(path string, sum *core.Summary) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := sum.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCSV writes the sampled keys with adjusted weights to path (stdout
// when empty).
func writeCSV(path string, sum *core.Summary) error {
	f := os.Stdout
	if path != "" {
		var err error
		f, err = os.Create(path)
		if err != nil {
			return err
		}
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s sample of %d keys, tau=%g\n", sum.Method, sum.Size(), sum.Tau)
	header := make([]string, len(sum.Axes))
	for d := range header {
		header[d] = fmt.Sprintf("c%d", d)
	}
	fmt.Fprintf(w, "# %s,weight,adjusted_weight\n", strings.Join(header, ","))
	for k := 0; k < sum.Size(); k++ {
		for d := range sum.Axes {
			fmt.Fprintf(w, "%d,", sum.Coords[d][k])
		}
		fmt.Fprintf(w, "%g,%g\n", sum.Weights[k], sum.AdjustedWeight(k))
	}
	if err := w.Flush(); err != nil {
		if path != "" {
			f.Close()
		}
		return err
	}
	if path != "" {
		return f.Close()
	}
	return nil
}

func parseMethod(name string) (core.Method, error) {
	switch name {
	case "aware":
		return core.Aware, nil
	case "aware2p":
		return core.AwareTwoPass, nil
	case "obliv":
		return core.Oblivious, nil
	case "poisson":
		return core.Poisson, nil
	default:
		return 0, fmt.Errorf("unknown method %q", name)
	}
}

// readCSV loads a CSV of 2-D keys as a dataset, merging repeated keys.
// The coordinates of every row go into one flat slice, and the points are
// cut from it once the file is read.
func readCSV(path string, bits int) (*structure.Dataset, error) {
	const dims = 2
	src, err := twopass.NewCSVSource(path, dims)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	var coords []uint64
	var ws []float64
	for {
		pt, w, ok, err := src.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		coords = append(coords, pt...)
		ws = append(ws, w)
	}
	pts := make([][]uint64, len(ws))
	for i := range pts {
		pts[i] = coords[dims*i : dims*(i+1) : dims*(i+1)]
	}
	axes := []structure.Axis{structure.BitTrieAxis(bits), structure.BitTrieAxis(bits)}
	return structure.NewDataset(axes, pts, ws)
}

// parseBox accepts the canonical range syntax shared with sasserve
// ("x1:x2,y1:y2", structure.ParseRange) and, for compatibility, the legacy
// all-colon form "x1:x2:y1:y2".
func parseBox(s string) (structure.Range, error) {
	if strings.Contains(s, ",") {
		box, err := structure.ParseRange(s)
		if err != nil {
			return nil, err
		}
		if len(box) != 2 {
			return nil, fmt.Errorf("query must name two axes (x1:x2,y1:y2)")
		}
		return box, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 4 {
		return nil, fmt.Errorf("query must be x1:x2,y1:y2 (or legacy x1:x2:y1:y2)")
	}
	vals := make([]uint64, 4)
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	if vals[0] > vals[1] || vals[2] > vals[3] {
		return nil, fmt.Errorf("query interval is empty (lo > hi)")
	}
	return structure.Range{{Lo: vals[0], Hi: vals[1]}, {Lo: vals[2], Hi: vals[3]}}, nil
}
