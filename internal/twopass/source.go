package twopass

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"

	"structaware/internal/structure"
)

// Source yields weighted keys in a stable order and can be rewound for the
// second pass. It is the out-of-core face of §5: the data never needs to be
// resident, only streamable twice.
type Source interface {
	// Reset rewinds the source to the first item.
	Reset() error
	// Next returns the next item. ok is false at end of stream. The
	// returned point may be reused by subsequent calls; callers must copy
	// if they retain it.
	Next() (pt []uint64, w float64, ok bool, err error)
}

// SliceSource adapts in-memory parallel slices to a Source (used by tests
// and as a reference implementation).
type SliceSource struct {
	Points  [][]uint64
	Weights []float64
	pos     int
}

// Reset implements Source.
func (s *SliceSource) Reset() error { s.pos = 0; return nil }

// Next implements Source.
func (s *SliceSource) Next() ([]uint64, float64, bool, error) {
	if s.pos >= len(s.Weights) {
		return nil, 0, false, nil
	}
	i := s.pos
	s.pos++
	return s.Points[i], s.Weights[i], true, nil
}

// rowScanner is the one CSV row parser behind CSVSource and ReaderSource:
// "c0,c1,...,weight" rows, blank lines and lines starting with '#' skipped,
// fields trimmed. name prefixes parse errors ("name:line: ..."). It parses
// each line in place in the scanner's buffer, so a row costs no allocation.
type rowScanner struct {
	name string
	sc   *bufio.Scanner
	dims int
	line int
	buf  []uint64
}

func newRowScanner(name string, r io.Reader, dims int) *rowScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	return &rowScanner{name: name, sc: sc, dims: dims, buf: make([]uint64, dims)}
}

func (rs *rowScanner) next() ([]uint64, float64, bool, error) {
	for rs.sc.Scan() {
		rs.line++
		text := bytes.TrimSpace(rs.sc.Bytes())
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		if n := bytes.Count(text, []byte{','}) + 1; n != rs.dims+1 {
			return nil, 0, false, fmt.Errorf("%s:%d: want %d fields, got %d", rs.name, rs.line, rs.dims+1, n)
		}
		for d := 0; d < rs.dims; d++ {
			i := bytes.IndexByte(text, ',')
			// A field of up to 32 bytes converts to a string on the
			// stack, since strconv copies its input before an error
			// keeps it.
			v, err := strconv.ParseUint(string(bytes.TrimSpace(text[:i])), 10, 64)
			if err != nil {
				return nil, 0, false, fmt.Errorf("%s:%d: %v", rs.name, rs.line, err)
			}
			rs.buf[d] = v
			text = text[i+1:]
		}
		w, err := strconv.ParseFloat(string(bytes.TrimSpace(text)), 64)
		if err != nil {
			return nil, 0, false, fmt.Errorf("%s:%d: %v", rs.name, rs.line, err)
		}
		return rs.buf, w, true, nil
	}
	return nil, 0, false, rs.sc.Err()
}

// CSVSource streams CSV rows from a file. Each Reset reopens the file, so a
// full two-pass construction performs exactly two sequential reads.
type CSVSource struct {
	Path string
	Dims int

	f  *os.File
	rs *rowScanner
}

// NewCSVSource opens a CSV source with the given number of key dimensions.
func NewCSVSource(path string, dims int) (*CSVSource, error) {
	if dims < 1 {
		return nil, fmt.Errorf("twopass: dims must be positive")
	}
	src := &CSVSource{Path: path, Dims: dims}
	if err := src.Reset(); err != nil {
		return nil, err
	}
	return src, nil
}

// Reset implements Source.
func (c *CSVSource) Reset() error {
	if c.f != nil {
		c.f.Close()
	}
	f, err := os.Open(c.Path)
	if err != nil {
		return err
	}
	c.f = f
	c.rs = newRowScanner(c.Path, f, c.Dims)
	return nil
}

// Close releases the underlying file.
func (c *CSVSource) Close() error {
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}

// Next implements Source.
func (c *CSVSource) Next() ([]uint64, float64, bool, error) {
	return c.rs.next()
}

// ReaderSource streams CSV rows (same format as CSVSource) from an
// arbitrary io.Reader exactly once — stdin, a socket, a pipe. It cannot be
// rewound, so it feeds the one-pass constructions (the streaming Builder),
// not the two-pass ones.
type ReaderSource struct {
	rs *rowScanner
}

// NewReaderSource wraps r as a one-shot CSV source with the given number of
// key dimensions.
func NewReaderSource(r io.Reader, dims int) (*ReaderSource, error) {
	if dims < 1 {
		return nil, fmt.Errorf("twopass: dims must be positive")
	}
	return &ReaderSource{rs: newRowScanner("stream", r, dims)}, nil
}

// Reset implements Source; a reader stream cannot be rewound.
func (s *ReaderSource) Reset() error {
	return errors.New("twopass: reader source cannot be rewound")
}

// Next implements Source.
func (s *ReaderSource) Next() ([]uint64, float64, bool, error) {
	return s.rs.next()
}

// ColumnSource is an optional Source upgrade for columnar backends: the
// stream is yielded as column batches (coords[d][i], weights[i]), letting
// scan loops skip the per-key point materialization entirely. Batches
// concatenate to exactly the row stream Next would yield. Consumers that
// receive a Source should type-assert for it, as the two-pass guide scan
// does.
type ColumnSource interface {
	Source
	// NextColumns returns the next columnar batch; a nil weights slice
	// signals end of stream. The returned slices may alias the backing store
	// and are valid until the next NextColumns or Reset call.
	NextColumns() (coords [][]uint64, weights []float64, err error)
}

// DatasetSource adapts a columnar Dataset to a Source without copying. It
// also implements ColumnSource — the dataset-backed column iterator: one
// batch exposing the dataset's columns directly, no per-key Point copy.
type DatasetSource struct {
	DS  *structure.Dataset
	pos int
	buf []uint64
}

// Reset implements Source.
func (d *DatasetSource) Reset() error { d.pos = 0; return nil }

// Next implements Source.
func (d *DatasetSource) Next() ([]uint64, float64, bool, error) {
	if d.pos >= d.DS.Len() {
		return nil, 0, false, nil
	}
	if d.buf == nil {
		d.buf = make([]uint64, d.DS.Dims())
	}
	i := d.pos
	d.pos++
	return d.DS.Point(i, d.buf), d.DS.Weights[i], true, nil
}

// NextColumns implements ColumnSource: the remaining rows as one zero-copy
// batch of the dataset's columns.
func (d *DatasetSource) NextColumns() ([][]uint64, []float64, error) {
	if d.pos >= d.DS.Len() {
		return nil, nil, nil
	}
	lo := d.pos
	d.pos = d.DS.Len()
	cols := make([][]uint64, d.DS.Dims())
	for dim := range cols {
		cols[dim] = d.DS.Coords[dim][lo:]
	}
	return cols, d.DS.Weights[lo:], nil
}
