package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"structaware/internal/structure"
	"structaware/internal/xmath"
)

func TestSummaryRoundTrip(t *testing.T) {
	ds := make2D(t, 500, 14, 21)
	orig, err := Build(ds, Config{Size: 60, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := orig.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadSummary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != orig.Size() || got.Tau != orig.Tau || got.Method != orig.Method {
		t.Fatalf("header mismatch: %v vs %v", got, orig)
	}
	for k := 0; k < orig.Size(); k++ {
		if got.Weights[k] != orig.Weights[k] ||
			got.Coords[0][k] != orig.Coords[0][k] ||
			got.Coords[1][k] != orig.Coords[1][k] {
			t.Fatalf("key %d mismatch", k)
		}
	}
	// Estimates agree on queries.
	box := structure.Range{{Lo: 0, Hi: 8000}, {Lo: 0, Hi: 16000}}
	if !xmath.AlmostEqual(got.EstimateRange(box), orig.EstimateRange(box), 1e-12) {
		t.Fatal("estimates diverge after round trip")
	}
}

func TestSummaryRoundTripExplicitAxes(t *testing.T) {
	// Explicit hierarchy axes come back as ordered views over the same
	// linearized coordinates; interval estimates are preserved.
	ds := make2D(t, 100, 10, 22)
	orig, err := Build(ds, Config{Size: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	orig.Axes = []structure.Axis{orig.Axes[0], orig.Axes[1]}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSummary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != orig.Size() {
		t.Fatal("size mismatch")
	}
}

// TestSummaryRoundTripLarge: a summary of more keys than ReadSummary's
// first column read (8,192 values) comes back bit for bit, so every column
// is read whole across its growth steps.
func TestSummaryRoundTripLarge(t *testing.T) {
	ds := make2D(t, 30000, 20, 23)
	orig, err := Build(ds, Config{Size: 20000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSummary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameSummary(t, got, orig, "20,000-key round trip")
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left unread", buf.Len())
	}
}

func TestReadSummaryRejectsCorruption(t *testing.T) {
	ds := make2D(t, 100, 10, 23)
	orig, err := Build(ds, Config{Size: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), full...)
	bad[0] = 'X'
	if _, err := ReadSummary(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic must error")
	}
	// Truncations at every prefix length must error, not panic.
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := ReadSummary(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Corrupt a weight into NaN (last 8 bytes).
	bad = append([]byte(nil), full...)
	for i := len(bad) - 8; i < len(bad); i++ {
		bad[i] = 0xff
	}
	if _, err := ReadSummary(bytes.NewReader(bad)); err == nil {
		t.Fatal("NaN weight must be rejected")
	}
}

// TestReadSummaryAllocatesAsBytesArrive: a header that declares 2^22 keys
// on two 20-bit axes and ends there is refused having allocated about what
// it held, not the 96 MiB of columns it declared.
func TestReadSummaryAllocatesAsBytesArrive(t *testing.T) {
	one := &Summary{
		Axes:    []structure.Axis{structure.BitTrieAxis(20), structure.BitTrieAxis(20)},
		Coords:  [][]uint64{{1}, {2}},
		Weights: []float64{3},
	}
	var buf bytes.Buffer
	if _, err := one.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	header := buf.Bytes()[:buf.Len()-3*8]
	binary.LittleEndian.PutUint32(header[len(header)-4:], 1<<22)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadSummary(bytes.NewReader(header))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("%d-byte header declaring 2^22 keys: %v, want ErrBadFormat", len(header), err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("%d-byte header declaring 2^22 keys allocated %d bytes", len(header), alloc)
	}
}

func TestReadSummaryEmptyInput(t *testing.T) {
	if _, err := ReadSummary(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input must error")
	}
}

// TestWriteToRefusesWhatReadSummaryRefuses holds WriteTo to the format's one
// check: a summary ReadSummary would refuse to read back is refused with
// ErrBadFormat before a byte is written, and the widest summary the format
// holds round-trips.
func TestWriteToRefusesWhatReadSummaryRefuses(t *testing.T) {
	// summary has one key at coordinate 1 on each of dims 4-bit axes.
	summary := func(dims int) *Summary {
		s := &Summary{Weights: []float64{2}, Tau: 1}
		for d := 0; d < dims; d++ {
			s.Axes = append(s.Axes, structure.BitTrieAxis(4))
			s.Coords = append(s.Coords, []uint64{1})
		}
		return s
	}
	widest := summary(structure.MaxAxes)
	var buf bytes.Buffer
	if _, err := widest.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadSummary(&buf); err != nil || len(got.Axes) != structure.MaxAxes {
		t.Fatalf("%d-axis summary read back as %v, %v", structure.MaxAxes, got, err)
	}

	for _, tc := range []struct {
		name  string
		spoil func(s *Summary)
	}{
		{"17 axes", func(s *Summary) { *s = *summary(structure.MaxAxes + 1) }},
		{"no axes", func(s *Summary) { *s = *summary(0) }},
		{"out of domain", func(s *Summary) { s.Coords[1][0] = 16 }},
		{"ragged coordinates", func(s *Summary) { s.Coords[0] = nil }},
		{"NaN weight", func(s *Summary) { s.Weights[0] = math.NaN() }},
		{"negative tau", func(s *Summary) { s.Tau = -1 }},
	} {
		s := summary(2)
		tc.spoil(s)
		var buf bytes.Buffer
		n, err := s.WriteTo(&buf)
		if !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: WriteTo error %v, want ErrBadFormat", tc.name, err)
		}
		if n != 0 || buf.Len() != 0 {
			t.Errorf("%s: WriteTo wrote %d bytes (reported %d), want none", tc.name, buf.Len(), n)
		}
	}
}
