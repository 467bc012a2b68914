package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"structaware/internal/structure"
)

// Summaries outlive the data they summarize — the paper's workflow archives
// or deletes the raw table once the summary is built, and the serving
// architecture builds shard summaries out-of-process, persists them, ships
// them, and merges them at query time (MergeSummaries). WriteTo/ReadSummary
// and the encoding.BinaryMarshaler/BinaryUnmarshaler pair give the Summary
// a compact, versioned binary encoding for that lifecycle.
//
// Format version 2 ("SAS2", little endian):
//
//	magic "SAS2" | method u8 | tau f64 | dims u16
//	| per-axis metadata (structure.WriteAxis; explicit hierarchies embed
//	  their full tree, so axes round-trip losslessly)
//	| size u32 | coords dims×size u64 | weights size f64
//
// Version 1 encoded explicit axes as flattened ordered views; readers of
// this version reject it (and any other version) with ErrVersion so a
// mixed-version fleet fails loudly instead of answering hierarchy queries
// from silently downgraded metadata.

var magic = [4]byte{'S', 'A', 'S', '2'}

// ErrBadFormat is returned when decoding fails.
var ErrBadFormat = errors.New("core: bad summary encoding")

// ErrVersion is returned when decoding a summary written by a different
// format version than this build reads.
var ErrVersion = errors.New("core: unsupported summary format version")

// maxSummarySize bounds decoded sample sizes so corrupt input cannot
// trigger absurd allocations.
const maxSummarySize = 1 << 30

// checkDims and checkSize are the shape rules of SAS2 that ReadSummary must
// apply before it allocates; check applies them with the rest.
func checkDims(dims int) error {
	if dims == 0 || dims > structure.MaxAxes {
		return fmt.Errorf("%w: %d dims", ErrBadFormat, dims)
	}
	return nil
}

func checkSize(size uint64) error {
	if size > maxSummarySize {
		return fmt.Errorf("%w: size %d", ErrBadFormat, size)
	}
	return nil
}

// check reports whether SAS2 holds s: 1 to structure.MaxAxes valid axes, at
// most maxSummarySize keys with one coordinate per axis, every coordinate
// inside its axis's domain, and a finite, non-negative tau and weights. It
// is the one rule both sides of the format keep: WriteTo refuses what
// ReadSummary would refuse to read back. A refusal wraps ErrBadFormat.
func (s *Summary) check() error {
	if err := checkDims(len(s.Axes)); err != nil {
		return err
	}
	if math.IsNaN(s.Tau) || math.IsInf(s.Tau, 0) || s.Tau < 0 {
		return fmt.Errorf("%w: tau %v", ErrBadFormat, s.Tau)
	}
	size := s.Size()
	if err := checkSize(uint64(size)); err != nil {
		return err
	}
	if len(s.Coords) != len(s.Axes) {
		return fmt.Errorf("%w: %d coordinate columns for %d axes", ErrBadFormat, len(s.Coords), len(s.Axes))
	}
	for d, ax := range s.Axes {
		if err := ax.Validate(); err != nil {
			return fmt.Errorf("%w: axis %d: %v", ErrBadFormat, d, err)
		}
		if len(s.Coords[d]) != size {
			return fmt.Errorf("%w: axis %d has %d coordinates for %d weights", ErrBadFormat, d, len(s.Coords[d]), size)
		}
		dom := ax.DomainSize()
		for _, x := range s.Coords[d] {
			if x >= dom {
				return fmt.Errorf("%w: coordinate %d out of domain on axis %d", ErrBadFormat, x, d)
			}
		}
	}
	for _, w := range s.Weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("%w: weight %v", ErrBadFormat, w)
		}
	}
	return nil
}

// WriteTo serializes the summary. It implements io.WriterTo. A summary
// ReadSummary would refuse is refused before the first byte is written.
func (s *Summary) WriteTo(w io.Writer) (int64, error) {
	if err := s.check(); err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}
	write := func(v interface{}) error {
		return binary.Write(cw, binary.LittleEndian, v)
	}
	if err := write(magic); err != nil {
		return cw.n, err
	}
	if err := write(uint8(s.Method)); err != nil {
		return cw.n, err
	}
	if err := write(s.Tau); err != nil {
		return cw.n, err
	}
	if err := write(uint16(len(s.Axes))); err != nil {
		return cw.n, err
	}
	for _, ax := range s.Axes {
		if err := structure.WriteAxis(cw, ax); err != nil {
			return cw.n, err
		}
	}
	if err := write(uint32(s.Size())); err != nil {
		return cw.n, err
	}
	for d := range s.Axes {
		if err := write(s.Coords[d]); err != nil {
			return cw.n, err
		}
	}
	if err := write(s.Weights); err != nil {
		return cw.n, err
	}
	return cw.n, bw.Flush()
}

// countingWriter tracks bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// ReadSummary deserializes a summary written by WriteTo. Summaries written
// by other format versions are rejected with ErrVersion, and a summary the
// format cannot hold (see check) with ErrBadFormat.
func ReadSummary(r io.Reader) (*Summary, error) {
	br := bufio.NewReader(r)
	read := func(v interface{}) error { return binary.Read(br, binary.LittleEndian, v) }
	var m [4]byte
	if err := read(&m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if m != magic {
		if m[0] == 'S' && m[1] == 'A' && m[2] == 'S' {
			return nil, fmt.Errorf("%w: got %q, this build reads %q", ErrVersion, m[:], magic[:])
		}
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, m[:])
	}
	var method uint8
	var tau float64
	var dims uint16
	if err := read(&method); err != nil {
		return nil, fmt.Errorf("%w: method", ErrBadFormat)
	}
	if err := read(&tau); err != nil {
		return nil, fmt.Errorf("%w: tau", ErrBadFormat)
	}
	if err := read(&dims); err != nil {
		return nil, fmt.Errorf("%w: dims", ErrBadFormat)
	}
	if err := checkDims(int(dims)); err != nil {
		return nil, err
	}
	s := &Summary{Tau: tau, Method: Method(method), Axes: make([]structure.Axis, dims)}
	for d := range s.Axes {
		ax, err := structure.ReadAxis(br)
		if err != nil {
			return nil, fmt.Errorf("%w: axis %d: %v", ErrBadFormat, d, err)
		}
		s.Axes[d] = ax
	}
	var size uint32
	if err := read(&size); err != nil {
		return nil, fmt.Errorf("%w: size", ErrBadFormat)
	}
	if err := checkSize(uint64(size)); err != nil {
		return nil, err
	}
	s.Coords = make([][]uint64, dims)
	var err error
	for d := range s.Coords {
		if s.Coords[d], err = readColumn[uint64](br, int(size)); err != nil {
			return nil, fmt.Errorf("%w: coords", ErrBadFormat)
		}
	}
	if s.Weights, err = readColumn[float64](br, int(size)); err != nil {
		return nil, fmt.Errorf("%w: weights", ErrBadFormat)
	}
	if err := s.check(); err != nil {
		return nil, err
	}
	return s, nil
}

// readColumn reads a column of n little-endian values. The size comes from
// the input, so the column grows only as its bytes arrive, from a first
// read of 8,192 values by doubling: a header that declares more keys than
// the input holds fails having allocated a small multiple of what the input
// held, not what the header declared.
func readColumn[T uint64 | float64](r io.Reader, n int) ([]T, error) {
	col := make([]T, min(n, 8192))
	for k := 0; ; {
		if err := binary.Read(r, binary.LittleEndian, col[k:]); err != nil {
			return nil, err
		}
		if len(col) == n {
			return col, nil
		}
		k = len(col)
		grown := make([]T, min(n, 2*k))
		copy(grown, col)
		col = grown
	}
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *Summary) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *Summary) UnmarshalBinary(data []byte) error {
	got, err := ReadSummary(bytes.NewReader(data))
	if err != nil {
		return err
	}
	*s = *got
	return nil
}
