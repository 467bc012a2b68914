package structure

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"

	"structaware/internal/hierarchy"
	"structaware/internal/ipps"
	"structaware/internal/xmath"
)

// referenceNewDataset is the constructor NewDataset replaced, kept as the
// reference its output must equal bit for bit: a map keyed by each point's
// bytes finds the row of a repeated key. Beyond that code it only refuses,
// as NewDataset does, a merged weight or total that stops being finite.
func referenceNewDataset(axes []Axis, points [][]uint64, weights []float64) (*Dataset, error) {
	if len(axes) == 0 {
		return nil, errors.New("structure: dataset needs at least one axis")
	}
	for d, a := range axes {
		if err := a.Validate(); err != nil {
			return nil, fmt.Errorf("axis %d: %w", d, err)
		}
	}
	if len(points) != len(weights) {
		return nil, fmt.Errorf("structure: %d points but %d weights", len(points), len(weights))
	}
	dims := len(axes)
	seen := make(map[string]int, len(points))
	var keyBuf []byte
	ds := &Dataset{Axes: axes, Coords: make([][]uint64, dims)}
	for i, pt := range points {
		if len(pt) != dims {
			return nil, fmt.Errorf("structure: point %d has %d dims, want %d", i, len(pt), dims)
		}
		w := weights[i]
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("structure: weight %d invalid: %v", i, w)
		}
		for d, x := range pt {
			if x >= axes[d].DomainSize() {
				return nil, fmt.Errorf("structure: point %d coordinate %d out of domain on axis %d", i, x, d)
			}
		}
		keyBuf = keyBuf[:0]
		for _, x := range pt {
			for b := 0; b < 8; b++ {
				keyBuf = append(keyBuf, byte(x>>(8*b)))
			}
		}
		j, ok := seen[string(keyBuf)]
		if ok {
			ds.Weights[j] += w
		} else {
			j = len(ds.Weights)
			seen[string(keyBuf)] = j
			for d, x := range pt {
				ds.Coords[d] = append(ds.Coords[d], x)
			}
			ds.Weights = append(ds.Weights, w)
		}
		ds.totalWeight += w
		if math.IsInf(ds.Weights[j], 0) || math.IsInf(ds.totalWeight, 0) {
			return nil, fmt.Errorf("structure: weight %d takes the total weight past the largest float64: %w", i, ipps.ErrBadWeight)
		}
	}
	return ds, nil
}

// checkMatchesReference builds the dataset both ways and fails unless the
// columns, weights and total agree bit for bit, or both constructors
// return the same error text.
func checkMatchesReference(t *testing.T, axes []Axis, points [][]uint64, weights []float64) {
	t.Helper()
	want, wantErr := referenceNewDataset(axes, points, weights)
	got, err := NewDataset(axes, points, weights)
	if wantErr != nil || err != nil {
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("error %v, reference error %v", err, wantErr)
		}
		return
	}
	if got.Len() != want.Len() || len(got.Coords) != len(want.Coords) {
		t.Fatalf("%d keys on %d axes, reference %d keys on %d axes", got.Len(), len(got.Coords), want.Len(), len(want.Coords))
	}
	for d := range want.Coords {
		for i, x := range want.Coords[d] {
			if got.Coords[d][i] != x {
				t.Fatalf("key %d axis %d: coordinate %d, reference %d", i, d, got.Coords[d][i], x)
			}
		}
	}
	for i, w := range want.Weights {
		if math.Float64bits(got.Weights[i]) != math.Float64bits(w) {
			t.Fatalf("key %d: weight %v, reference %v", i, got.Weights[i], w)
		}
	}
	if math.Float64bits(got.TotalWeight()) != math.Float64bits(want.TotalWeight()) {
		t.Fatalf("total %v, reference %v", got.TotalWeight(), want.TotalWeight())
	}
}

// randomTree returns a random rooted tree over nodes nodes: each node
// after the root hangs under an earlier one.
func randomTree(t testing.TB, r *xmath.SplitMix, nodes int) *hierarchy.Tree {
	parents := make([]int32, nodes)
	parents[0] = -1
	for v := 1; v < nodes; v++ {
		parents[v] = int32(r.Intn(v))
	}
	tree, err := hierarchy.New(parents)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// randomAxes returns 1 to 4 axes of random kinds: ordered and bit-trie axes
// 1 to 63 bits wide, explicit ones over random trees.
func randomAxes(t testing.TB, r *xmath.SplitMix) []Axis {
	axes := make([]Axis, 1+r.Intn(4))
	for d := range axes {
		switch r.Intn(3) {
		case 0:
			axes[d] = OrderedAxis(1 + r.Intn(63))
		case 1:
			axes[d] = BitTrieAxis(1 + r.Intn(63))
		default:
			axes[d] = ExplicitAxis(randomTree(t, r, 1+r.Intn(40)))
		}
	}
	return axes
}

// testWeights are the weights inputs draw from: zero, subnormals, a value
// an addition loses beside 1e16 (so the order of a sum shows), and 1e300.
var testWeights = []float64{0, 5e-324, 2.5e-310, 1, 1, 1, 0.1, 0.3, 3, 1e16, 1e300}

// randomInput draws n rows over axes. With dups set, rows repeat a pool
// of about n/20 keys; otherwise every row draws a fresh key (narrow axes
// still repeat some). With bad set, a few rows at random positions are
// invalid.
func randomInput(r *xmath.SplitMix, axes []Axis, n int, dups, bad bool) ([][]uint64, []float64) {
	key := func() []uint64 {
		pt := make([]uint64, len(axes))
		for d, a := range axes {
			pt[d] = r.Uint64() % a.DomainSize()
		}
		return pt
	}
	pool := make([][]uint64, 1+n/20)
	for k := range pool {
		pool[k] = key()
	}
	points, weights := make([][]uint64, n), make([]float64, n)
	for i := range points {
		if dups {
			points[i] = append([]uint64(nil), pool[r.Intn(len(pool))]...)
		} else {
			points[i] = key()
		}
		if r.Intn(4) == 0 {
			weights[i] = r.Float64() * 100
		} else {
			weights[i] = testWeights[r.Intn(len(testWeights))]
		}
	}
	for k := 0; bad && n > 0 && k < 3; k++ {
		i := r.Intn(n)
		switch r.Intn(4) {
		case 0:
			points[i] = points[i][:len(points[i])-1]
		case 1:
			weights[i] = []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(4)]
		case 2:
			d := r.Intn(len(axes))
			points[i] = append([]uint64(nil), points[i]...)
			points[i][d] = axes[d].DomainSize() + r.Uint64()%3
		default:
			points[i] = append(points[i], 0)
		}
	}
	return points, weights
}

// TestNewDatasetMatchesReference compares NewDataset with the map-keyed
// reference on random inputs: 1 to 4 axes of every kind, inputs with and
// without repeated keys, weights whose sums depend on their order, and
// invalid rows.
func TestNewDatasetMatchesReference(t *testing.T) {
	r := xmath.NewRand(2024)
	for trial := 0; trial < 400; trial++ {
		axes := randomAxes(t, r)
		n := r.Intn(2000)
		dups, bad := trial%2 == 1, trial%5 == 4
		points, weights := randomInput(r, axes, n, dups, bad)
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			checkMatchesReference(t, axes, points, weights)
		})
	}
}

// fuzzWeights are the weights a fuzz input picks by index: the test
// weights, invalid ones, and 1.7e308, two of which overflow a sum.
var fuzzWeights = append([]float64{-1, math.NaN(), math.Inf(1), 1.7e308}, testWeights...)

// decodeFuzzInput reads axes and rows from data. Byte 0 gives the number
// of axes, then one byte per axis its kind and width (or tree size). Each
// row is a shape byte (a nonzero value below 8 drops or adds a
// coordinate), a weight byte and one byte per coordinate: the byte modulo
// the axis's domain, except that 255 lies past the domain.
func decodeFuzzInput(t testing.TB, data []byte) ([]Axis, [][]uint64, []float64) {
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	b0, _ := next()
	axes := make([]Axis, 1+b0%4)
	for d := range axes {
		b, _ := next()
		switch b % 3 {
		case 0:
			axes[d] = OrderedAxis(1 + int(b/3)%63)
		case 1:
			axes[d] = BitTrieAxis(1 + int(b/3)%63)
		default:
			axes[d] = ExplicitAxis(randomTree(t, xmath.NewRand(uint64(b)), 1+int(b/3)%16))
		}
	}
	var points [][]uint64
	var weights []float64
	for {
		shape, ok := next()
		if !ok {
			return axes, points, weights
		}
		wb, _ := next()
		weights = append(weights, fuzzWeights[int(wb)%len(fuzzWeights)])
		dims := len(axes)
		if shape != 0 && shape < 8 {
			dims += int(shape%2)*2 - 1
		}
		pt := make([]uint64, dims)
		for d := range pt {
			b, _ := next()
			size := uint64(256)
			if d < len(axes) {
				size = axes[d].DomainSize()
			}
			pt[d] = uint64(b) % size
			if b == 255 {
				pt[d] = size
			}
		}
		points = append(points, pt)
	}
}

// FuzzNewDatasetMatchesReference searches for inputs on which NewDataset
// and the map-keyed reference disagree. The seeds run under go test.
func FuzzNewDatasetMatchesReference(f *testing.F) {
	// Weight bytes index fuzzWeights: 3 is 1.7e308, 7–9 are 1, 13 is 1e16.
	// One 8-bit ordered axis: key 5 repeats with weights 1e16, 1, 1, 1,
	// which sum to another value in another order.
	f.Add([]byte{0, 21, 0, 13, 5, 0, 7, 5, 0, 8, 5, 0, 9, 6, 0, 7, 5})
	// Two 8-bit bit-trie axes: keys (3, 4) and (3, 5) share axis 0.
	f.Add([]byte{1, 22, 22, 0, 7, 3, 4, 0, 12, 3, 5, 0, 4, 3, 4, 0, 13, 9, 9, 0, 7, 3, 5})
	// A bit-trie axis and an explicit one, with repeats and a zero weight.
	f.Add([]byte{1, 22, 20, 0, 7, 1, 2, 0, 4, 9, 9, 0, 7, 1, 2, 0, 8, 1, 3})
	// Four 1-bit axes: keys repeat.
	f.Add([]byte{3, 0, 1, 0, 1, 0, 7, 0, 1, 0, 1, 0, 8, 1, 1, 0, 1, 0, 9, 0, 1, 0, 1, 0, 13, 0, 1, 1, 1})
	// Invalid rows, one to a seed: a missing coordinate, a NaN weight, a
	// coordinate past the domain.
	f.Add([]byte{1, 22, 22, 0, 7, 1, 2, 2, 7, 1})
	f.Add([]byte{1, 22, 22, 0, 7, 1, 2, 0, 1, 1, 2})
	f.Add([]byte{1, 22, 22, 0, 7, 1, 2, 0, 7, 255, 4})
	// Two weights of 1.7e308 on one key: the merged weight overflows.
	f.Add([]byte{0, 21, 0, 3, 5, 0, 3, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		axes, points, weights := decodeFuzzInput(t, data)
		checkMatchesReference(t, axes, points, weights)
	})
}

// TestNewDatasetRefusesNonFiniteTotal: two rows of one key of weight
// 1.7e308 merge into +Inf, and the distinct weights 1.7e308, 1.7e308, 1
// sum to +Inf. Each is refused with ipps.ErrBadWeight, naming row 1,
// where the sum overflowed.
func TestNewDatasetRefusesNonFiniteTotal(t *testing.T) {
	axes := twoDAxes()
	for name, in := range map[string]struct {
		points  [][]uint64
		weights []float64
	}{
		"merged": {[][]uint64{{1, 2}, {1, 2}}, []float64{1.7e308, 1.7e308}},
		"total":  {[][]uint64{{1, 2}, {3, 4}, {5, 6}}, []float64{1.7e308, 1.7e308, 1}},
	} {
		ds, err := NewDataset(axes, in.points, in.weights)
		if !errors.Is(err, ipps.ErrBadWeight) {
			t.Fatalf("%s: got %v, %v; want an error wrapping ipps.ErrBadWeight", name, ds, err)
		}
		if !strings.HasPrefix(err.Error(), "structure: weight 1 ") {
			t.Errorf("%s: error %q does not name row 1", name, err)
		}
	}
}

// sliceHeader is the layout of a slice value.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

// TestNewDatasetRefusesTooManyRows: the index holds row numbers as int32,
// so more than 2^31−1 rows are refused before a row is read or anything
// is allocated for them. The slices claim 2^31 elements over one, which
// is never read; they are built from headers because unsafe.Slice checks,
// under -race, that its elements lie in one allocation.
func TestNewDatasetRefusesTooManyRows(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("int cannot count past 2^31−1 rows")
	}
	rows := int64(maxRows) + 1
	n := int(rows)
	pt, w := []uint64{1, 2}, 1.0
	ph := sliceHeader{unsafe.Pointer(&pt), n, n}
	wh := sliceHeader{unsafe.Pointer(&w), n, n}
	points, weights := *(*[][]uint64)(unsafe.Pointer(&ph)), *(*[]float64)(unsafe.Pointer(&wh))
	_, err := NewDataset(twoDAxes(), points, weights)
	if err == nil || !strings.Contains(err.Error(), "more than the 2147483647") {
		t.Fatalf("%d rows: error %v, want the row limit named", n, err)
	}
}

// TestNewDatasetOutputIndependentOfSeed: each call seeds the index's hash
// afresh, so repeated builds of one input, each under another seed, must
// be bitwise equal.
func TestNewDatasetOutputIndependentOfSeed(t *testing.T) {
	r := xmath.NewRand(7)
	axes := []Axis{BitTrieAxis(6), OrderedAxis(6)}
	points, weights := randomInput(r, axes, 5000, true, false)
	first, err := NewDataset(axes, points, weights)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		ds, err := NewDataset(axes, points, weights)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first.Weights {
			if ds.Coords[0][i] != first.Coords[0][i] || ds.Coords[1][i] != first.Coords[1][i] ||
				math.Float64bits(ds.Weights[i]) != math.Float64bits(first.Weights[i]) {
				t.Fatalf("build %d differs at key %d", k, i)
			}
		}
	}
}

// TestNewDatasetSpareCapacity: the columns carry no more spare capacity
// than the reference's append growth leaves, with no repeated keys, a few
// and mostly repeated ones.
func TestNewDatasetSpareCapacity(t *testing.T) {
	r := xmath.NewRand(11)
	axes := []Axis{BitTrieAxis(20), BitTrieAxis(20)}
	for _, tc := range []struct {
		name string
		keys int // distinct keys among 100,000 rows
	}{{"distinct", 100000}, {"few repeats", 97000}, {"mostly repeats", 1000}} {
		points, weights := make([][]uint64, 100000), make([]float64, 100000)
		for i := range points {
			k := uint64(i % tc.keys)
			points[i], weights[i] = []uint64{k >> 10, k & 1023}, r.Float64()
		}
		got, err := NewDataset(axes, points, weights)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceNewDataset(axes, points, weights)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != tc.keys {
			t.Fatalf("%s: %d keys, want %d", tc.name, got.Len(), tc.keys)
		}
		for d := range got.Coords {
			if cap(got.Coords[d]) > cap(want.Coords[d]) {
				t.Errorf("%s: axis %d capacity %d for %d keys, append leaves %d", tc.name, d, cap(got.Coords[d]), got.Len(), cap(want.Coords[d]))
			}
		}
		if cap(got.Weights) > cap(want.Weights) {
			t.Errorf("%s: weight capacity %d for %d keys, append leaves %d", tc.name, cap(got.Weights), got.Len(), cap(want.Weights))
		}
	}
}

// TestNewDatasetAllocsIndependentOfSize: the per-row loop allocates
// nothing, so building a dataset of 100,000 rows makes as many
// allocations as one of 1,000.
func TestNewDatasetAllocsIndependentOfSize(t *testing.T) {
	allocs := func(n int) float64 {
		r := xmath.NewRand(uint64(n))
		axes := []Axis{BitTrieAxis(20), OrderedAxis(20)}
		points, weights := randomInput(r, axes, n, false, false)
		return testing.AllocsPerRun(3, func() {
			if _, err := NewDataset(axes, points, weights); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1000), allocs(100000); small != large {
		t.Fatalf("NewDataset allocates %v times over 1,000 rows and %v times over 100,000", small, large)
	}
}
