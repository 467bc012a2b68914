package twopass

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"structaware/internal/structure"
	"structaware/internal/varopt"
	"structaware/internal/xmath"
)

func sliceSourceFrom(ds *structure.Dataset) *SliceSource {
	pts := make([][]uint64, ds.Len())
	for i := range pts {
		pts[i] = ds.Point(i, nil)
	}
	return &SliceSource{Points: pts, Weights: ds.Weights}
}

// TestProductStreamUnbiasedTotal: over a row source (no columnar fast
// path), the adjusted weights of the sample estimate the total weight.
func TestProductStreamUnbiasedTotal(t *testing.T) {
	r := xmath.NewRand(2)
	ds := random2D(t, r, 900, 14)
	total := ds.TotalWeight()
	const trials = 200
	var acc float64
	for k := 0; k < trials; k++ {
		res, err := Product(sliceSourceFrom(ds), ds.Axes, 60, Config{}, xmath.NewRand(uint64(k+1)))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range res.Weights {
			acc += res.AdjustedWeight(w)
		}
	}
	mean := acc / trials
	if math.Abs(mean-total) > 0.06*total {
		t.Fatalf("estimated total %v want %v", mean, total)
	}
}

// TestProductStreamSmallPopulation: a row source no larger than s is kept
// exactly, in source order; zero-weight rows are skipped but still count
// as source positions.
func TestProductStreamSmallPopulation(t *testing.T) {
	src := &SliceSource{
		Points:  [][]uint64{{1, 2}, {3, 4}, {5, 6}, {7, 8}},
		Weights: []float64{1, 0, 2, 3},
	}
	axes := []structure.Axis{structure.OrderedAxis(8), structure.OrderedAxis(8)}
	res, err := Product(src, axes, 10, Config{}, xmath.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 3 || res.Tau != 0 {
		t.Fatalf("small population must be exact: %d items τ=%v", res.Size(), res.Tau)
	}
	if res.Rows[1] != 2 || res.Coords[1][2] != 8 || res.Weights[2] != 3 {
		t.Fatalf("small population must be kept in source order: %+v", res)
	}
}

func TestProductStreamErrors(t *testing.T) {
	src := &SliceSource{}
	axes := []structure.Axis{structure.OrderedAxis(8)}
	if _, err := Product(src, axes, 0, Config{}, xmath.NewRand(1)); err == nil {
		t.Fatal("s=0 must error")
	}
	if _, err := Product(src, nil, 5, Config{}, xmath.NewRand(1)); err == nil {
		t.Fatal("no axes must error")
	}
	if _, err := Product(src, axes, 5, Config{}, xmath.NewRand(1)); !errors.Is(err, varopt.ErrEmpty) {
		t.Fatalf("empty stream: %v want ErrEmpty", err)
	}
}

func TestReaderSourceParsesSharedFormat(t *testing.T) {
	input := "# header\n\n1,2,0.5\n 3 , 4 , 1.5 \n"
	src, err := NewReaderSource(strings.NewReader(input), 2)
	if err != nil {
		t.Fatal(err)
	}
	var pts [][]uint64
	var ws []float64
	for {
		pt, w, ok, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		pts = append(pts, append([]uint64(nil), pt...))
		ws = append(ws, w)
	}
	if len(pts) != 2 || pts[0][0] != 1 || pts[1][1] != 4 || ws[0] != 0.5 || ws[1] != 1.5 {
		t.Fatalf("parsed %v %v", pts, ws)
	}
	if err := src.Reset(); err == nil {
		t.Fatal("reader source must refuse to rewind")
	}
}

func TestReaderSourceErrors(t *testing.T) {
	if _, err := NewReaderSource(strings.NewReader(""), 0); err == nil {
		t.Fatal("dims 0 must error")
	}
	for _, bad := range []string{"1,2\n", "1,2,3,4\n", "a,2,3\n", "1,2,x\n"} {
		src, err := NewReaderSource(strings.NewReader(bad), 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := src.Next(); err == nil {
			t.Fatalf("row %q must error", bad)
		}
	}
}

// TestRowScannerErrorText pins the parse errors: the line number counts
// skipped comment and blank lines, and a bad number carries strconv's own
// message.
func TestRowScannerErrorText(t *testing.T) {
	for _, tc := range []struct{ input, want string }{
		{"1,2\n", "stream:1: want 3 fields, got 2"},
		{"# header\n\n1,2,3,4\n", "stream:3: want 3 fields, got 4"},
		{"1,2,3\n,\n", "stream:2: want 3 fields, got 2"},
		{"a,2,3\n", `stream:1: strconv.ParseUint: parsing "a": invalid syntax`},
		{" 1 , -2 , 3 \n", `stream:1: strconv.ParseUint: parsing "-2": invalid syntax`},
		{"1,,3\n", `stream:1: strconv.ParseUint: parsing "": invalid syntax`},
		{"18446744073709551616,1,1\n", `stream:1: strconv.ParseUint: parsing "18446744073709551616": value out of range`},
		{"1,2,x\n", `stream:1: strconv.ParseFloat: parsing "x": invalid syntax`},
		{"1,2, \n", `stream:1: strconv.ParseFloat: parsing "": invalid syntax`},
		{"1,2,1e999\n", `stream:1: strconv.ParseFloat: parsing "1e999": value out of range`},
	} {
		src, err := NewReaderSource(strings.NewReader(tc.input), 2)
		if err != nil {
			t.Fatal(err)
		}
		var got error
		for got == nil {
			var ok bool
			if _, _, ok, got = src.Next(); !ok && got == nil {
				break
			}
		}
		if got == nil || got.Error() != tc.want {
			t.Errorf("input %q: error %v, want %s", tc.input, got, tc.want)
		}
	}
}

// TestCSVSourceScanAllocsIndependentOfSize: a full CSVSource scan costs as
// many allocations at 1,000 rows as at 100,000, so the row parser
// allocates nothing per row.
func TestCSVSourceScanAllocsIndependentOfSize(t *testing.T) {
	dir := t.TempDir()
	scanAllocs := func(rows int) float64 {
		var b strings.Builder
		b.WriteString("# c0,c1,weight\n\n")
		r := xmath.NewRand(uint64(rows))
		for i := 0; i < rows; i++ {
			fmt.Fprintf(&b, "%d, %d ,%g\n", r.Uint64()%(1<<20), r.Uint64()%(1<<20), 1+100*r.Float64())
		}
		path := filepath.Join(dir, fmt.Sprintf("rows-%d.csv", rows))
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			src, err := NewCSVSource(path, 2)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for {
				_, _, ok, err := src.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				n++
			}
			if err := src.Close(); err != nil || n != rows {
				t.Fatalf("scanned %d of %d rows (close: %v)", n, rows, err)
			}
		})
	}
	small, large := scanAllocs(1000), scanAllocs(100000)
	t.Logf("allocations per scan: %v at 1,000 rows, %v at 100,000", small, large)
	if small != large {
		t.Fatalf("a scan allocates %v times at 1,000 rows and %v at 100,000", small, large)
	}
}

func TestCSVSourceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.csv")
	content := "# header comment\n1,2,3.5\n\n4,5,6\n7,8,0.25\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := NewCSVSource(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	read := func() ([][]uint64, []float64) {
		var pts [][]uint64
		var ws []float64
		for {
			pt, w, ok, err := src.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			pts = append(pts, append([]uint64(nil), pt...))
			ws = append(ws, w)
		}
		return pts, ws
	}
	pts, ws := read()
	if len(pts) != 3 || ws[0] != 3.5 || pts[2][0] != 7 {
		t.Fatalf("parsed %v %v", pts, ws)
	}
	// Reset re-reads identically (the two-pass contract).
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	pts2, ws2 := read()
	if len(pts2) != 3 || ws2[2] != ws[2] {
		t.Fatal("Reset must re-read the same rows")
	}
}

func TestCSVSourceErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(path, []byte("1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := NewCSVSource(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, _, _, err := src.Next(); err == nil {
		t.Fatal("wrong field count must error")
	}
	if _, err := NewCSVSource(filepath.Join(dir, "missing.csv"), 2); err == nil {
		t.Fatal("missing file must error")
	}
	if _, err := NewCSVSource(path, 0); err == nil {
		t.Fatal("dims=0 must error")
	}
}

func TestCSVSourceTwoPassEndToEnd(t *testing.T) {
	// Full out-of-core flow: generate CSV, sample via two sequential reads.
	r := xmath.NewRand(4)
	ds := random2D(t, r, 1500, 14)
	dir := t.TempDir()
	path := filepath.Join(dir, "flows.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Len(); i++ {
		if _, err := fmt.Fprintf(f, "%d,%d,%g\n", ds.Coords[0][i], ds.Coords[1][i], ds.Weights[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := NewCSVSource(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	res, err := Product(src, ds.Axes, 80, Config{}, xmath.NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Size() - 80; d < -1 || d > 1 {
		t.Fatalf("size %d want 80±1", res.Size())
	}
}

func TestDatasetSource(t *testing.T) {
	r := xmath.NewRand(5)
	ds := random2D(t, r, 200, 10)
	src := &DatasetSource{DS: ds}
	count := 0
	for {
		pt, w, ok, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if len(pt) != 2 || w <= 0 {
			t.Fatal("bad item")
		}
		count++
	}
	if count != ds.Len() {
		t.Fatalf("read %d want %d", count, ds.Len())
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := src.Next(); !ok {
		t.Fatal("reset must rewind")
	}
}
