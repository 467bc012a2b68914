package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"structaware/internal/core"
	"structaware/internal/ipps"
	"structaware/internal/structure"
	"structaware/internal/twopass"
	"structaware/internal/xmath"
)

func TestParseMethod(t *testing.T) {
	cases := map[string]core.Method{
		"aware":   core.Aware,
		"aware2p": core.AwareTwoPass,
		"obliv":   core.Oblivious,
		"poisson": core.Poisson,
	}
	for name, want := range cases {
		got, err := parseMethod(name)
		if err != nil || got != want {
			t.Fatalf("parseMethod(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := parseMethod("bogus"); err == nil {
		t.Fatal("unknown method must error")
	}
}

func TestParseBox(t *testing.T) {
	box, err := parseBox("1:10:20:30")
	if err != nil {
		t.Fatal(err)
	}
	if box[0].Lo != 1 || box[0].Hi != 10 || box[1].Lo != 20 || box[1].Hi != 30 {
		t.Fatalf("box %v", box)
	}
	// The canonical comma syntax shared with sasserve parses to the same
	// box.
	canon, err := parseBox("1:10,20:30")
	if err != nil {
		t.Fatal(err)
	}
	if canon[0] != box[0] || canon[1] != box[1] {
		t.Fatalf("canonical box %v, want %v", canon, box)
	}
	for _, bad := range []string{"1:2:3", "a:2:3:4", "1:2:3:4:5", "", "1:2,3:4,5:6", "10:1,2:3", "10:1:2:3", "1:2:30:3"} {
		if _, err := parseBox(bad); err == nil {
			t.Fatalf("parseBox(%q) must error", bad)
		}
	}
}

func TestReadCSVEndToEnd(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.csv")
	content := "# comment\n5,6,1.5\n7,8,2\n5,6,0.5\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := readCSV(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 {
		t.Fatalf("len %d want 2 (dedup)", ds.Len())
	}
	if ds.TotalWeight() != 4 {
		t.Fatalf("total %v want 4", ds.TotalWeight())
	}
	// Sampling the tiny CSV keeps everything.
	sum, err := core.Build(ds, core.Config{Size: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Size() != 2 {
		t.Fatalf("size %d", sum.Size())
	}
	if _, err := readCSV(filepath.Join(dir, "missing.csv"), 8); err == nil {
		t.Fatal("missing file must error")
	}
}

// readCSVPerRow is the loader readCSV replaced, which copied every row
// into a slice of its own.
func readCSVPerRow(path string, bits int) (*structure.Dataset, error) {
	src, err := twopass.NewCSVSource(path, 2)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	var pts [][]uint64
	var ws []float64
	for {
		pt, w, ok, err := src.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		pts = append(pts, append([]uint64(nil), pt...))
		ws = append(ws, w)
	}
	axes := []structure.Axis{structure.BitTrieAxis(bits), structure.BitTrieAxis(bits)}
	return structure.NewDataset(axes, pts, ws)
}

// TestReadCSVMatchesPerRowLoader: readCSV, which cuts its points from one
// flat slice, loads the dataset the per-row loader loaded, bit for bit, on
// a CSV whose keys repeat.
func TestReadCSVMatchesPerRowLoader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.csv")
	var csv strings.Builder
	r := xmath.NewRand(3)
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&csv, "%d,%d,%g\n", r.Intn(40), r.Intn(40), 100*r.Float64())
	}
	if err := os.WriteFile(path, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readCSV(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := readCSVPerRow(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() || got.Len() >= 5000 {
		t.Fatalf("%d keys, per-row loader %d, from 5000 rows", got.Len(), want.Len())
	}
	for i := range want.Weights {
		if got.Coords[0][i] != want.Coords[0][i] || got.Coords[1][i] != want.Coords[1][i] ||
			math.Float64bits(got.Weights[i]) != math.Float64bits(want.Weights[i]) {
			t.Fatalf("key %d differs from the per-row loader's", i)
		}
	}
	if math.Float64bits(got.TotalWeight()) != math.Float64bits(want.TotalWeight()) {
		t.Fatalf("total %v, per-row loader %v", got.TotalWeight(), want.TotalWeight())
	}
}

// TestSampleRefusesOverflowingCSV: a CSV whose weights are each finite but
// sum past the largest float64 is refused as ipps.ErrBadWeight when loaded,
// and the built command exits 1 naming the row, with no sample written.
func TestSampleRefusesOverflowingCSV(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"merged.csv": "5,6,1.7e308\n5,6,1.7e308\n",
		"total.csv":  "5,6,1.7e308\n7,8,1.7e308\n9,10,1\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readCSV(path, 8); !errors.Is(err, ipps.ErrBadWeight) {
			t.Fatalf("%s: readCSV error %v, want ipps.ErrBadWeight", name, err)
		}
	}
	bin := filepath.Join(dir, "sassample")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range []string{"merged.csv", "total.csv"} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, "-in", filepath.Join(dir, name), "-s", "2", "-bits", "8")
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s: %v, want exit status 1 (stderr %q)", name, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "weight 1 ") || !strings.Contains(stderr.String(), ipps.ErrBadWeight.Error()) {
			t.Errorf("%s: message %q does not name row 1 and the bad weight", name, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote %q", name, stdout.String())
		}
	}
}

// TestStreamDumpMergeLifecycle drives the serve workflow end to end through
// the CLI helpers: two shards built from streams (one per "process"),
// serialized to disk, then merged from the serialized forms.
func TestStreamDumpMergeLifecycle(t *testing.T) {
	dir := t.TempDir()
	const bits = 10
	shardCSV := func(seed, n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			x := (seed*31 + i*7) % (1 << bits)
			y := (seed*17 + i*13) % (1 << bits)
			fmt.Fprintf(&sb, "%d,%d,1.5\n", x, y)
		}
		return sb.String()
	}
	cfg := core.Config{Size: 40, Seed: 3}
	axes := []structure.Axis{structure.BitTrieAxis(bits), structure.BitTrieAxis(bits)}
	var paths []string
	for j := 0; j < 2; j++ {
		b, err := core.NewBuilder(axes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := buildStream(strings.NewReader(shardCSV(j+1, 500)), b)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Size() != 40 {
			t.Fatalf("shard %d size %d", j, sum.Size())
		}
		path := filepath.Join(dir, fmt.Sprintf("shard%d.sas", j))
		if err := writeSummaryFile(path, sum); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	merged, err := mergeSummaries(paths, 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Size() != 40 {
		t.Fatalf("merged size %d want 40", merged.Size())
	}
	if merged.Tau <= 0 {
		t.Fatalf("merged tau %v", merged.Tau)
	}
	// CSV output of the merged summary is well-formed.
	outPath := filepath.Join(dir, "merged.csv")
	if err := writeCSV(outPath, merged); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2+merged.Size() {
		t.Fatalf("%d output lines want %d", len(lines), 2+merged.Size())
	}
	// Merging a corrupt file fails cleanly.
	bad := filepath.Join(dir, "bad.sas")
	if err := os.WriteFile(bad, []byte("not a summary"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := mergeSummaries(append(paths, bad), 40, 9); err == nil {
		t.Fatal("corrupt shard must error")
	}
	if _, err := mergeSummaries([]string{filepath.Join(dir, "missing.sas")}, 40, 9); err == nil {
		t.Fatal("missing shard must error")
	}
}
