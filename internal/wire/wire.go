// Package wire implements the binary columnar ingest frame — the
// wire-speed counterpart of sasserve's JSON ingest body. A frame carries
// one Builder.PushBatch call: dims little-endian uint64 coordinate columns
// and one float64 weight column, each length-prefixed, behind a fixed
// 12-byte header and in front of a CRC-32C trailer. The layout is chosen so
// that decoding is a straight memory sweep into reusable column buffers
// (zero steady-state allocations — see Decoder and Batch) and so that a
// receiver can size-check a frame from its header alone before allocating
// anything.
//
// Frame layout (all integers little-endian):
//
//	offset  size        field
//	0       4           magic "SASF"
//	4       1           version (currently 1)
//	5       1           reserved, must be 0
//	6       2           dims   — number of coordinate columns (axes)
//	8       4           rows   — keys in the frame (>= 1)
//	12      dims × col  coordinate columns, each: uint32 length (== rows),
//	                    then rows × uint64 coordinates
//	...     col         weight column: uint32 length (== rows), then
//	                    rows × float64 (IEEE 754 bits)
//	last    4           CRC-32C (Castagnoli) of every preceding byte
//
// The per-column length prefixes are deliberately redundant with the
// header's row count: a frame assembled from mismatched columns fails
// loudly (ErrColumnLength) instead of silently shearing keys.
//
// A stream is just concatenated frames (see Reader); the write-ahead log
// stores its records this way. Over HTTP each request body is one frame.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Frame geometry.
const (
	magic      = "SASF"
	Version    = 1
	headerSize = 12
	prefixSize = 4 // per-column uint32 length prefix
	crcSize    = 4

	// MaxDims bounds the axis count a frame may declare; real summaries
	// have a handful of axes, so anything larger is a corrupt or hostile
	// header, rejected before any column allocation.
	MaxDims = 64

	// DefaultMaxRows is the row cap applied by a Decoder with MaxRows == 0.
	// It matches the per-request key cap of sasserve's JSON ingest path.
	DefaultMaxRows = 1 << 17

	// ContentType identifies a frame body on the HTTP ingest path
	// (POST /v1/summaries/{name}/keys).
	ContentType = "application/x-sas-frame"
)

// Strict validation errors. Decode failures wrap exactly one of these, so
// callers can classify (and tests can assert) without string matching.
var (
	ErrTruncated    = errors.New("wire: truncated frame")
	ErrMagic        = errors.New("wire: bad frame magic")
	ErrVersion      = errors.New("wire: unsupported frame version")
	ErrDims         = errors.New("wire: frame dimension mismatch")
	ErrRows         = errors.New("wire: bad frame row count")
	ErrColumnLength = errors.New("wire: column length mismatch")
	ErrChecksum     = errors.New("wire: frame checksum mismatch")
	ErrTrailing     = errors.New("wire: trailing bytes after frame")
)

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FrameSize returns the encoded size in bytes of a frame with the given
// geometry: header + (dims coordinate columns + 1 weight column) + trailer.
func FrameSize(dims, rows int) int {
	return headerSize + (dims+1)*(prefixSize+8*rows) + crcSize
}

// AppendFrame appends one encoded frame carrying the batch to dst and
// returns the extended slice. coords[d][i] is key i's coordinate on axis d,
// weights[i] its weight — the exact shape Builder.PushBatch consumes on the
// receiving side. The batch must be non-empty, rectangular, and within
// MaxDims/uint32 rows.
func AppendFrame(dst []byte, coords [][]uint64, weights []float64) ([]byte, error) {
	dims, rows := len(coords), len(weights)
	if dims == 0 || dims > MaxDims {
		return dst, fmt.Errorf("%w: %d columns", ErrDims, dims)
	}
	if rows == 0 || uint64(rows) > math.MaxUint32 {
		return dst, fmt.Errorf("%w: %d rows", ErrRows, rows)
	}
	for d := range coords {
		if len(coords[d]) != rows {
			return dst, fmt.Errorf("%w: column %d has %d rows for %d weights", ErrColumnLength, d, len(coords[d]), rows)
		}
	}
	start := len(dst)
	dst = append(dst, magic...)
	dst = append(dst, Version, 0)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(dims))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rows))
	for d := range coords {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(rows))
		for _, x := range coords[d] {
			dst = binary.LittleEndian.AppendUint64(dst, x)
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rows))
	for _, w := range weights {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(w))
	}
	sum := crc32.Checksum(dst[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, sum), nil
}

// Batch is a decoded frame: the columnar (coords, weights) pair shaped for
// Builder.PushBatch. Decoding into the same Batch reuses its buffers, so a
// steady-state decode loop does not allocate. The slices are overwritten by
// the next Decode into the same Batch; consumers that need the data past
// that point must copy it (Builder.PushBatch does).
type Batch struct {
	Coords  [][]uint64
	Weights []float64
}

// Rows returns the number of keys in the batch.
func (b *Batch) Rows() int { return len(b.Weights) }

// grow shapes the batch's buffers to dims × rows, reusing capacity.
func (b *Batch) grow(dims, rows int) {
	if cap(b.Coords) < dims {
		old := b.Coords
		b.Coords = make([][]uint64, dims)
		copy(b.Coords, old)
	}
	b.Coords = b.Coords[:dims]
	for d := range b.Coords {
		if cap(b.Coords[d]) < rows {
			b.Coords[d] = make([]uint64, rows)
		}
		b.Coords[d] = b.Coords[d][:rows]
	}
	if cap(b.Weights) < rows {
		b.Weights = make([]float64, rows)
	}
	b.Weights = b.Weights[:rows]
}

// Decoder validates and decodes frames for one summary's key domain. The
// zero value is not useful: Dims must be the expected axis count. MaxRows
// caps the keys a single frame may carry (0 = DefaultMaxRows); the cap is
// enforced from the header, before any allocation, so adversarial frames
// cannot make a Decoder allocate more than FrameSize(Dims, MaxRows) bytes
// of column buffers no matter what their headers claim.
type Decoder struct {
	Dims    int
	MaxRows int
}

func (d Decoder) maxRows() int {
	if d.MaxRows <= 0 {
		return DefaultMaxRows
	}
	return d.MaxRows
}

// header validates the fixed 12-byte prefix and returns the declared
// geometry. It performs every check that must precede allocation.
func (d Decoder) header(h []byte) (dims, rows int, err error) {
	if len(h) < headerSize {
		return 0, 0, fmt.Errorf("%w: %d header bytes", ErrTruncated, len(h))
	}
	if string(h[:4]) != magic {
		return 0, 0, fmt.Errorf("%w: % x", ErrMagic, h[:4])
	}
	if h[4] != Version || h[5] != 0 {
		return 0, 0, fmt.Errorf("%w: version %d flags %d", ErrVersion, h[4], h[5])
	}
	dims = int(binary.LittleEndian.Uint16(h[6:8]))
	rows = int(binary.LittleEndian.Uint32(h[8:12]))
	if dims != d.Dims {
		return 0, 0, fmt.Errorf("%w: frame has %d columns, want %d", ErrDims, dims, d.Dims)
	}
	if rows == 0 || rows > d.maxRows() {
		return 0, 0, fmt.Errorf("%w: %d rows (limit %d)", ErrRows, rows, d.maxRows())
	}
	return dims, rows, nil
}

// Decode decodes exactly one frame into dst, reusing dst's buffers. The
// input must be a whole frame and nothing else: short input is
// ErrTruncated, extra bytes are ErrTrailing. The returned columns alias
// dst's buffers and remain valid until the next Decode into the same Batch.
//
//sasvet:hotpath
func (d Decoder) Decode(frame []byte, dst *Batch) error {
	dims, rows, err := d.header(frame)
	if err != nil {
		return err
	}
	size := FrameSize(dims, rows)
	if len(frame) < size {
		//sasvet:ok corrupt-frame path; the frame is rejected whole (a 400, or the end of a WAL replay), so this runs once per bad frame, never in a steady-state decode
		return fmt.Errorf("%w: %d bytes of a %d-byte frame", ErrTruncated, len(frame), size)
	}
	if len(frame) > size {
		//sasvet:ok corrupt-frame path; the frame is rejected whole (a 400, or the end of a WAL replay), so this runs once per bad frame, never in a steady-state decode
		return fmt.Errorf("%w: %d bytes after a %d-byte frame", ErrTrailing, len(frame)-size, size)
	}
	return d.decodeBody(frame, dims, rows, dst)
}

// decodeBody checks the trailer and sweeps the columns of a size-validated
// frame into dst.
//
//sasvet:hotpath
func (d Decoder) decodeBody(frame []byte, dims, rows int, dst *Batch) error {
	body := frame[:len(frame)-crcSize]
	want := binary.LittleEndian.Uint32(frame[len(frame)-crcSize:])
	if got := crc32.Checksum(body, castagnoli); got != want {
		//sasvet:ok corrupt-frame path; the frame is rejected whole (a 400, or the end of a WAL replay), so this runs once per bad frame, never in a steady-state decode
		return fmt.Errorf("%w: computed %08x, frame says %08x", ErrChecksum, got, want)
	}
	dst.grow(dims, rows)
	off := headerSize
	//sasvet:ok the closure never escapes decodeBody, so it stays on the stack (the alloc pin in wire_test proves 0 allocs)
	col := func(d int) error {
		if n := binary.LittleEndian.Uint32(body[off:]); int(n) != rows {
			//sasvet:ok corrupt-frame path; the frame is rejected whole (a 400, or the end of a WAL replay), so this runs once per bad frame, never in a steady-state decode
			return fmt.Errorf("%w: column %d declares %d rows, header says %d", ErrColumnLength, d, n, rows)
		}
		off += prefixSize
		return nil
	}
	for c := 0; c < dims; c++ {
		if err := col(c); err != nil {
			return err
		}
		out := dst.Coords[c]
		for i := 0; i < rows; i++ {
			out[i] = binary.LittleEndian.Uint64(body[off:])
			off += 8
		}
	}
	if err := col(dims); err != nil {
		return err
	}
	for i := 0; i < rows; i++ {
		dst.Weights[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[off:]))
		off += 8
	}
	return nil
}

// Reader decodes a stream of concatenated frames from r, reusing one
// internal frame buffer across frames.
type Reader struct {
	cfg Decoder
	r   io.Reader
	buf []byte
}

// NewReader returns a Reader decoding frames from r under cfg's limits.
func NewReader(r io.Reader, cfg Decoder) *Reader {
	return &Reader{cfg: cfg, r: r}
}

// Next reads and decodes the next frame into dst. A clean end of stream on
// a frame boundary returns io.EOF; a stream ending mid-frame returns
// ErrTruncated.
func (fr *Reader) Next(dst *Batch) error {
	if cap(fr.buf) < headerSize {
		fr.buf = make([]byte, headerSize)
	}
	header := fr.buf[:headerSize]
	if _, err := io.ReadFull(fr.r, header); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	dims, rows, err := fr.cfg.header(header)
	if err != nil {
		return err
	}
	size := FrameSize(dims, rows)
	if cap(fr.buf) < size {
		buf := make([]byte, size)
		copy(buf, header)
		fr.buf = buf
	}
	frame := fr.buf[:size]
	if _, err := io.ReadFull(fr.r, frame[headerSize:]); err != nil {
		return fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return fr.cfg.decodeBody(frame, dims, rows, dst)
}
