package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"testing"

	"structaware/internal/xmath"
)

// genBatch derives a deterministic batch of n keys over dims axes.
func genBatch(dims, n int, seed uint64) ([][]uint64, []float64) {
	r := xmath.NewRand(seed)
	coords := make([][]uint64, dims)
	for d := range coords {
		coords[d] = make([]uint64, n)
		for i := range coords[d] {
			coords[d][i] = r.Uint64() % 1024
		}
	}
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1 + 10*r.Float64()
	}
	return coords, weights
}

func mustFrame(t testing.TB, coords [][]uint64, weights []float64) []byte {
	t.Helper()
	frame, err := AppendFrame(nil, coords, weights)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestFrameRoundTrip(t *testing.T) {
	for _, tc := range []struct{ dims, rows int }{
		{1, 1}, {2, 7}, {3, 1000}, {5, 64},
	} {
		coords, weights := genBatch(tc.dims, tc.rows, uint64(tc.dims*1000+tc.rows))
		frame := mustFrame(t, coords, weights)
		if len(frame) != FrameSize(tc.dims, tc.rows) {
			t.Fatalf("dims=%d rows=%d: frame is %d bytes, FrameSize says %d",
				tc.dims, tc.rows, len(frame), FrameSize(tc.dims, tc.rows))
		}
		var b Batch
		if err := (Decoder{Dims: tc.dims}).Decode(frame, &b); err != nil {
			t.Fatalf("dims=%d rows=%d: %v", tc.dims, tc.rows, err)
		}
		for d := range coords {
			for i := range coords[d] {
				if b.Coords[d][i] != coords[d][i] {
					t.Fatalf("coords[%d][%d] = %d, want %d", d, i, b.Coords[d][i], coords[d][i])
				}
			}
		}
		for i := range weights {
			if math.Float64bits(b.Weights[i]) != math.Float64bits(weights[i]) {
				t.Fatalf("weights[%d] = %v, want %v", i, b.Weights[i], weights[i])
			}
		}
	}
}

// TestFrameRoundTripSpecialWeights: weight bit patterns survive exactly
// (the frame carries IEEE 754 bits, not a decimal rendering).
func TestFrameRoundTripSpecialWeights(t *testing.T) {
	weights := []float64{0, math.SmallestNonzeroFloat64, math.MaxFloat64, 1e-300, 0.1}
	coords := [][]uint64{{0, 1, 2, 3, math.MaxUint64}}
	frame := mustFrame(t, coords, weights)
	var b Batch
	if err := (Decoder{Dims: 1, MaxRows: 5}).Decode(frame, &b); err != nil {
		t.Fatal(err)
	}
	for i := range weights {
		if math.Float64bits(b.Weights[i]) != math.Float64bits(weights[i]) {
			t.Fatalf("weight %d: %x, want %x", i, math.Float64bits(b.Weights[i]), math.Float64bits(weights[i]))
		}
	}
	if b.Coords[0][4] != math.MaxUint64 {
		t.Fatalf("uint64 coordinate truncated: %d", b.Coords[0][4])
	}
}

// TestAppendFrameRejects: the encoder refuses batches the decoder could
// not round-trip.
func TestAppendFrameRejects(t *testing.T) {
	for _, tc := range []struct {
		name    string
		coords  [][]uint64
		weights []float64
		want    error
	}{
		{"no columns", nil, []float64{1}, ErrDims},
		{"too many columns", make([][]uint64, MaxDims+1), []float64{}, ErrDims},
		{"no rows", [][]uint64{{}}, nil, ErrRows},
		{"ragged", [][]uint64{{1, 2}, {3}}, []float64{1, 1}, ErrColumnLength},
	} {
		if _, err := AppendFrame(nil, tc.coords, tc.weights); !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.want)
		}
	}
}

// corrupt returns a copy of frame with one transformation applied.
func corrupt(frame []byte, f func([]byte) []byte) []byte {
	c := append([]byte(nil), frame...)
	return f(c)
}

// TestDecodeMalformed is the malformed-frame table: every rejection path
// returns its sentinel error and a decoder that never panics.
func TestDecodeMalformed(t *testing.T) {
	coords, weights := genBatch(2, 50, 3)
	frame := mustFrame(t, coords, weights)
	dec := Decoder{Dims: 2}
	for _, tc := range []struct {
		name  string
		frame []byte
		dec   Decoder
		want  error
	}{
		{"empty", nil, dec, ErrTruncated},
		{"short header", frame[:11], dec, ErrTruncated},
		{"truncated body", frame[:len(frame)-5], dec, ErrTruncated},
		{"truncated checksum", frame[:len(frame)-1], dec, ErrTruncated},
		{"bad magic", corrupt(frame, func(c []byte) []byte { c[0] = 'X'; return c }), dec, ErrMagic},
		{"wrong version", corrupt(frame, func(c []byte) []byte { c[4] = 9; return c }), dec, ErrVersion},
		{"reserved flags", corrupt(frame, func(c []byte) []byte { c[5] = 1; return c }), dec, ErrVersion},
		{"dims mismatch", frame, Decoder{Dims: 3}, ErrDims},
		{"zero rows", corrupt(frame, func(c []byte) []byte {
			binary.LittleEndian.PutUint32(c[8:], 0)
			return c
		}), dec, ErrRows},
		{"rows above cap", frame, Decoder{Dims: 2, MaxRows: 49}, ErrRows},
		{"rows beyond frame", corrupt(frame, func(c []byte) []byte {
			// Header claims more rows than the frame carries bytes for.
			binary.LittleEndian.PutUint32(c[8:], 51)
			return c
		}), dec, ErrTruncated},
		{"column length mismatch", corrupt(frame, func(c []byte) []byte {
			// First column's redundant prefix disagrees with the header; the
			// trailer is refreshed so the structural check, not the checksum,
			// catches it.
			binary.LittleEndian.PutUint32(c[headerSize:], 49)
			body := c[:len(c)-crcSize]
			binary.LittleEndian.PutUint32(c[len(c)-crcSize:], crc32.Checksum(body, castagnoli))
			return c
		}), dec, ErrColumnLength},
		{"flipped payload byte", corrupt(frame, func(c []byte) []byte { c[20] ^= 0x40; return c }), dec, ErrChecksum},
		{"flipped checksum byte", corrupt(frame, func(c []byte) []byte { c[len(c)-1] ^= 1; return c }), dec, ErrChecksum},
		{"trailing bytes", append(append([]byte(nil), frame...), 0), dec, ErrTrailing},
	} {
		var b Batch
		if err := tc.dec.Decode(tc.frame, &b); !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestReaderStream(t *testing.T) {
	var stream []byte
	var want [][]float64
	for i := 0; i < 5; i++ {
		coords, weights := genBatch(2, 10+i, uint64(i))
		frame, err := AppendFrame(stream, coords, weights)
		if err != nil {
			t.Fatal(err)
		}
		stream = frame
		want = append(want, weights)
	}
	fr := NewReader(bytes.NewReader(stream), Decoder{Dims: 2})
	var b Batch
	for i := 0; ; i++ {
		err := fr.Next(&b)
		if err == io.EOF {
			if i != len(want) {
				t.Fatalf("EOF after %d frames, want %d", i, len(want))
			}
			break
		}
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(b.Weights) != len(want[i]) {
			t.Fatalf("frame %d: %d rows, want %d", i, len(b.Weights), len(want[i]))
		}
		for j := range want[i] {
			if b.Weights[j] != want[i][j] {
				t.Fatalf("frame %d weight %d: %v, want %v", i, j, b.Weights[j], want[i][j])
			}
		}
	}

	// A stream cut mid-frame is truncated, not EOF.
	fr = NewReader(bytes.NewReader(stream[:len(stream)-3]), Decoder{Dims: 2})
	var err error
	for err == nil {
		err = fr.Next(&b)
	}
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("cut stream: %v, want ErrTruncated", err)
	}
}
