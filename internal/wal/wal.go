// Package wal is the write-ahead log that makes acknowledged ingest
// durable: a per-summary, segmented, append-only log of accepted batches,
// written before the ack leaves the server and replayed into the live
// builders on startup. Records are internal/wire columnar frames verbatim
// — the same CRC-32C-trailed, self-delimiting encoding the ingest plane
// already speaks — so appending is one buffer encode away from the hot
// path and replay inherits wire's torn-tail semantics for free (a stream
// ending mid-frame is ErrTruncated, cleanly distinguishable from a frame
// boundary).
//
// # Segments and the coverage rule
//
// The log is a sequence of segment files
//
//	<name>-<baseSeq %08d>-<sub %04d>.wal
//
// where baseSeq is a snapshot *attempt* sequence number and sub orders the
// segments within one attempt window (size-based rolls, plus restarts that
// reopen the same window). Each file starts with a small header ("SASW",
// version, baseSeq) redundant with its name, then raw frames.
//
// Rotation calls Cut(seq) at the instant it decides what snapshot attempt
// seq will cover, which seals the active segment and opens a fresh one
// with baseSeq = seq. That gives the one invariant everything else hangs
// off: a record in a segment with baseSeq B was appended after the cut for
// attempt B and before the cut for any later attempt, so it is covered by
// every successful snapshot with seq > B and by none with seq <= B.
// Recovery therefore loads the newest loadable snapshot S and replays
// exactly the segments with baseSeq >= S, in (baseSeq, sub) order; Truncate
// deletes segments with baseSeq < S once snapshot S is durably renamed.
// Attempt numbers are consumed even by failed rotations, which is what
// keeps the rule crash-consistent: a cut with no matching snapshot file
// just means those segments are replayed against an older snapshot.
//
// # Sync policies
//
// PolicyAlways fsyncs every append before it returns, so an acked key
// survives OS crash and power loss. PolicyInterval writes each record to
// the file (one write(2), no userspace buffering) before the append
// returns and fsyncs in the background every SyncEvery: an acked key then
// survives process death of any kind — kill -9, OOM, panic — because the
// data is in the page cache the moment write() returns, and only an OS
// crash or power loss can lose up to SyncEvery of acks. PolicyOff is the
// caller's signal to not open a log at all.
//
// Every file operation here is on the durability contract (the PR 9
// torn-write hole lived in this package), so the durable analyzer
// checks Sync/Close/Rename error handling and open flags:
//
//sasvet:durable
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"structaware/internal/wire"
)

// Segment file geometry.
const (
	segMagic      = "SASW"
	segVersion    = 1
	segHeaderSize = 14 // magic(4) + version(1) + reserved(1) + baseSeq(8)

	// DefaultSegmentBytes is the roll threshold applied when
	// Options.SegmentBytes is 0. Segments are replayed whole into memory at
	// startup, so the cap bounds recovery's working set as well as file
	// count.
	DefaultSegmentBytes = 64 << 20

	// DefaultSyncEvery is the background fsync period applied under
	// PolicyInterval when Options.SyncEvery is 0.
	DefaultSyncEvery = 100 * time.Millisecond
)

// Replay faults. An error returned by the caller's apply function (as
// opposed to a decode fault of the segment bytes) comes back wrapped
// together with ErrApply, so errors.Is matches either; an apply error is
// never a tolerable torn tail.
var (
	ErrSegmentHeader = errors.New("wal: bad segment header")
	ErrApply         = errors.New("wal: apply record")
)

// Policy selects when an appended record is forced to stable storage
// relative to the ack that depends on it. The zero value is PolicyOff so a
// zero liveConfig keeps PR 7 semantics.
type Policy int

const (
	PolicyOff      Policy = iota // no WAL: acks survive only graceful shutdown
	PolicyInterval               // write before ack, background fsync: acks survive kill -9
	PolicyAlways                 // fsync before ack: acks survive power loss
)

// ParsePolicy maps the -wal-sync flag values onto policies.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "off":
		return PolicyOff, nil
	case "interval":
		return PolicyInterval, nil
	case "always":
		return PolicyAlways, nil
	}
	return PolicyOff, fmt.Errorf("unknown wal sync policy %q (want always, interval, or off)", s)
}

func (p Policy) String() string {
	switch p {
	case PolicyInterval:
		return "interval"
	case PolicyAlways:
		return "always"
	default:
		return "off"
	}
}

// Options configures Open.
type Options struct {
	Dir     string // segment directory (shared with snapshot files)
	Name    string // live summary name, the segment filename prefix
	BaseSeq uint64 // snapshot attempt window the first segment opens in
	Policy  Policy // PolicyAlways or PolicyInterval (PolicyOff is an error)

	SegmentBytes int64                         // roll threshold (0 = DefaultSegmentBytes)
	SyncEvery    time.Duration                 // PolicyInterval fsync period (0 = DefaultSyncEvery)
	Logf         func(format string, a ...any) // best-effort maintenance logging (nil = silent)
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return DefaultSegmentBytes
	}
	return o.SegmentBytes
}

func (o Options) logf(format string, a ...any) {
	if o.Logf != nil {
		o.Logf(format, a...)
	}
}

// Log is one live summary's write-ahead log. The caller serializes Append
// and Cut (sasserve holds a per-summary mutex across the append and the
// queue handoff it acks); the internal mutex only covers the file handle
// against the background fsync loop.
type Log struct {
	opts Options

	mu       sync.Mutex
	f        *os.File // active segment (nil after Close)
	path     string
	base     uint64 // active segment's snapshot attempt window
	sub      uint64 // active segment's index within the window
	size     int64  // bytes written to the active segment
	buf      []byte // frame encode buffer, reused across appends
	unsynced bool   // bytes written since the last fsync (PolicyInterval)
	err      error  // sticky: a tear we could not heal poisons the log

	done    chan struct{} // closed once to stop syncLoop; never reassigned
	closing bool
	wg      sync.WaitGroup
}

// Open scans dir for existing segments of name and opens a fresh active
// segment that sorts after every one of them: its baseSeq is the larger of
// opts.BaseSeq and the highest baseSeq on disk, its sub one past that
// window's highest. Existing segments are never reopened for writing — a
// crashed process may have left a torn final record, and appending after a
// tear would turn a tolerable tail into fatal mid-stream corruption.
func Open(opts Options) (*Log, error) {
	if opts.Policy == PolicyOff {
		return nil, errors.New("wal: open with PolicyOff")
	}
	segs, err := List(opts.Dir, opts.Name)
	if err != nil {
		return nil, err
	}
	base, sub := opts.BaseSeq, uint64(0)
	for _, sg := range segs {
		if sg.BaseSeq > base {
			base, sub = sg.BaseSeq, sg.Sub+1
		} else if sg.BaseSeq == base {
			sub = sg.Sub + 1
		}
	}
	l := &Log{opts: opts, done: make(chan struct{})}
	if err := l.openSegment(base, sub); err != nil {
		return nil, err
	}
	if opts.Policy == PolicyInterval {
		every := opts.SyncEvery
		if every <= 0 {
			every = DefaultSyncEvery
		}
		l.wg.Add(1)
		go l.syncLoop(every)
	}
	return l, nil
}

// openSegment creates segment (base, sub), writes its header, and makes it
// the active segment. The containing directory is fsynced so the new name
// itself is durable. Callers hold l.mu (or own the log exclusively).
func (l *Log) openSegment(base, sub uint64) error {
	path := segmentPath(l.opts.Dir, l.opts.Name, base, sub)
	// O_APPEND makes every write land at the file's current EOF regardless
	// of the fd offset. That is load-bearing for Append's torn-write heal:
	// after a partial write the fd offset sits past the truncated length,
	// and without O_APPEND the next successful write would leave a
	// zero-filled hole that replay reads as a torn tail — silently dropping
	// every acked record after it.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	hdr := make([]byte, 0, segHeaderSize)
	hdr = append(hdr, segMagic...)
	hdr = append(hdr, segVersion, 0)
	hdr = binary.LittleEndian.AppendUint64(hdr, base)
	if _, err := f.Write(hdr); err != nil {
		err = errors.Join(err, f.Close())
		os.Remove(path)
		return err
	}
	if l.opts.Policy == PolicyAlways {
		if err := f.Sync(); err != nil {
			err = errors.Join(err, f.Close())
			os.Remove(path)
			return err
		}
	}
	SyncDir(l.opts.Dir, l.opts.Logf)
	l.f, l.path, l.base, l.sub, l.size = f, path, base, sub, int64(segHeaderSize)
	return nil
}

// Append logs one batch and does not return until the record is as durable
// as the policy promises: written to the OS under PolicyInterval, fsynced
// under PolicyAlways. The caller acks only after Append returns nil.
func (l *Log) Append(coords [][]uint64, weights []float64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.f == nil {
		return errors.New("wal: append to closed log")
	}
	buf, err := wire.AppendFrame(l.buf[:0], coords, weights)
	if err != nil {
		return err
	}
	l.buf = buf
	if _, err := l.f.Write(buf); err != nil {
		// A failed or short write may have left a torn record mid-segment,
		// which replay would treat as fatal corruption unless it is the
		// final tail. Heal by truncating back to the last good boundary —
		// the segment is open O_APPEND, so the next write lands at the new
		// EOF rather than the advanced fd offset; if even the truncate
		// fails the log is poisoned and every later ack fails.
		if terr := l.f.Truncate(l.size); terr != nil {
			l.err = fmt.Errorf("wal: segment torn at %d and unhealable (%v) after write error: %w", l.size, terr, err)
			return l.err
		}
		return err
	}
	l.size += int64(len(buf))
	switch l.opts.Policy {
	case PolicyAlways:
		if err := l.f.Sync(); err != nil {
			// The write is in the page cache but the always-policy promise
			// is broken; poison the log rather than ack at a weaker
			// guarantee than the operator configured.
			l.err = fmt.Errorf("wal: fsync: %w", err)
			return l.err
		}
	default:
		l.unsynced = true
	}
	if l.size >= l.opts.segmentBytes() {
		if err := l.roll(l.base, l.sub+1); err != nil {
			// The record itself is durable in the sealed-or-still-active
			// segment; a roll failure only means the next append re-tries
			// the roll (size stays past the threshold) or fails sticky.
			return err
		}
	}
	return nil
}

// Cut seals the active segment and opens a new one in snapshot attempt
// window seq. Rotation calls it at the barrier that separates records
// covered by attempt seq from records that are not; after Cut returns, the
// sealed segments hold exactly the records a successful snapshot seq makes
// redundant.
func (l *Log) Cut(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.f == nil {
		return errors.New("wal: cut of closed log")
	}
	if seq < l.base {
		return fmt.Errorf("wal: cut to window %d behind active window %d", seq, l.base)
	}
	sub := uint64(0)
	if seq == l.base {
		sub = l.sub + 1
	}
	return l.roll(seq, sub)
}

// roll seals the active segment (fsync + close, so sealed segments are
// always fully durable and never torn) and opens segment (base, sub).
// Callers hold l.mu.
func (l *Log) roll(base, sub uint64) error {
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: seal %s: %w", filepath.Base(l.path), err)
		return l.err
	}
	l.unsynced = false
	if err := l.f.Close(); err != nil {
		l.err = fmt.Errorf("wal: seal %s: %w", filepath.Base(l.path), err)
		return l.err
	}
	l.f = nil
	if err := l.openSegment(base, sub); err != nil {
		l.err = fmt.Errorf("wal: open segment after seal: %w", err)
		return l.err
	}
	return nil
}

// Truncate deletes segments whose window precedes coveredSeq — every
// record in them is covered by the durably-renamed snapshot coveredSeq.
// Best effort: a segment that cannot be removed is logged and retried
// after the next snapshot.
func (l *Log) Truncate(coveredSeq uint64) {
	l.mu.Lock()
	active := l.path
	l.mu.Unlock()
	segs, err := List(l.opts.Dir, l.opts.Name)
	if err != nil {
		l.opts.logf("wal %q: truncate scan: %v", l.opts.Name, err)
		return
	}
	for _, sg := range segs {
		if sg.BaseSeq >= coveredSeq || sg.Path == active {
			continue
		}
		if err := os.Remove(sg.Path); err != nil {
			l.opts.logf("wal %q: truncate %s: %v", l.opts.Name, filepath.Base(sg.Path), err)
		}
	}
}

// Sync forces an fsync of the active segment, surfacing (and recording)
// any durability failure. Interval mode's background loop uses it; callers
// may too (e.g. a final flush).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.err != nil {
		return l.err
	}
	if l.f == nil || !l.unsynced {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: fsync: %w", err)
		return l.err
	}
	l.unsynced = false
	return nil
}

// syncLoop is PolicyInterval's background fsync pump. It holds l.mu only
// for the fsync itself; appends already returned their acks, so the only
// cost of the pause is added latency on concurrent appends once per
// period.
func (l *Log) syncLoop(every time.Duration) {
	defer l.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-t.C:
		}
		if err := l.Sync(); err != nil {
			l.opts.logf("wal %q: background fsync: %v", l.opts.Name, err)
		}
	}
}

// Close seals the active segment and stops the background fsync loop. The
// log is unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	if !l.closing {
		l.closing = true
		close(l.done)
	}
	l.mu.Unlock()
	l.wg.Wait()

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return l.err
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	if err != nil && l.err == nil {
		l.err = fmt.Errorf("wal: close: %w", err)
	}
	return err
}

// SyncDir fsyncs a directory, making name creations and renames inside it
// durable across power loss. Best effort by design: some filesystems
// refuse directory fsync, and the record-level fsync policy already covers
// the common crash modes, so a failure is logged (when logf is non-nil)
// rather than escalated.
func SyncDir(dir string, logf func(format string, a ...any)) {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil && logf != nil {
		logf("fsync dir %s: %v", dir, err)
	}
}

// ---- Segment discovery ------------------------------------------------------

// Segment is one on-disk WAL segment file.
type Segment struct {
	BaseSeq uint64 // snapshot attempt window
	Sub     uint64 // order within the window
	Path    string
}

// segmentPath names segment (baseSeq, sub) of a live summary. Fixed-width
// numbers keep lexicographic and replay order identical, same as snapshot
// files.
func segmentPath(dir, name string, baseSeq, sub uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%08d-%04d.wal", name, baseSeq, sub))
}

// parseSegmentName extracts (baseSeq, sub) from a segment filename
// produced by segmentPath for this summary name.
func parseSegmentName(filename, name string) (baseSeq, sub uint64, ok bool) {
	mid, found := strings.CutPrefix(filename, name+"-")
	if !found {
		return 0, 0, false
	}
	mid, found = strings.CutSuffix(mid, ".wal")
	if !found {
		return 0, 0, false
	}
	b, s, found := strings.Cut(mid, "-")
	if !found {
		return 0, 0, false
	}
	baseSeq, err := strconv.ParseUint(b, 10, 64)
	if err != nil {
		return 0, 0, false
	}
	sub, err = strconv.ParseUint(s, 10, 64)
	return baseSeq, sub, err == nil
}

// List returns name's segments in replay order: ascending (baseSeq, sub).
// A missing directory means no segments.
func List(dir, name string) ([]Segment, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var segs []Segment
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		if base, sub, ok := parseSegmentName(de.Name(), name); ok {
			segs = append(segs, Segment{base, sub, filepath.Join(dir, de.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].BaseSeq != segs[j].BaseSeq {
			return segs[i].BaseSeq < segs[j].BaseSeq
		}
		return segs[i].Sub < segs[j].Sub
	})
	return segs, nil
}

// ---- Replay -----------------------------------------------------------------

// Stats summarizes one recovery replay.
type Stats struct {
	Segments int   // segment files visited (skipped ones not counted)
	Records  int   // batches applied
	Keys     int64 // keys applied
	Torn     bool  // the final segment ended mid-record (valid prefix applied)
}

// Replay applies every record not covered by snapshot minSeq — segments
// with baseSeq >= minSeq, in (baseSeq, sub) order — by calling fn once per
// decoded batch. The batch is reused across calls; fn must consume it
// before returning (Builder.PushBatch copies).
//
// Only the final segment is allowed to end mid-record: it is the one
// segment a crashed process can have left torn, and its valid prefix is
// exactly the records whose appends completed. The same fault anywhere
// else is corruption of data the log promised was sealed, and recovery
// fails loudly rather than silently serving a summary with a hole in it —
// the same posture recoverLive takes when no snapshot loads.
//
// A tolerated tear is also healed on disk: the torn segment is truncated
// to its valid prefix (fsynced), or deleted outright when even its header
// never made it. Open starts a fresh segment after the torn one, so
// without the heal a second restart would find the tear mid-stream — no
// longer last in List order — and refuse to start over records that were
// already, correctly, dropped as unacked tail. A heal failure is an error
// for the same reason: leaving the tear guarantees that exact fate.
func Replay(dir, name string, minSeq uint64, dec wire.Decoder, fn func(*wire.Batch) error) (Stats, error) {
	segs, err := List(dir, name)
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	for i, sg := range segs {
		if sg.BaseSeq < minSeq {
			continue
		}
		data, err := os.ReadFile(sg.Path)
		if err != nil {
			return st, fmt.Errorf("wal: replay %s: %w", filepath.Base(sg.Path), err)
		}
		st.Segments++
		records, keys, good, fault := replaySegmentFile(data, sg.BaseSeq, dec, fn)
		st.Records += records
		st.Keys += keys
		if fault == nil {
			continue
		}
		if errors.Is(fault, ErrApply) || i != len(segs)-1 {
			return st, fmt.Errorf("wal: replay %s: %w", filepath.Base(sg.Path), fault)
		}
		st.Torn = true
		if err := healTornTail(dir, sg.Path, good); err != nil {
			return st, fmt.Errorf("wal: heal torn tail of %s: %w", filepath.Base(sg.Path), err)
		}
	}
	return st, nil
}

// healTornTail makes a tolerated tear durable fact: the segment file is
// cut back to its good-prefix length so later replays see a cleanly
// sealed segment instead of mid-stream corruption. good == 0 means not
// even the header survived (a crash between create and header write);
// such a file holds no records and is removed rather than left as a
// zero-byte tombstone that would read as torn forever.
func healTornTail(dir, path string, good int) error {
	if good == 0 {
		if err := os.Remove(path); err != nil {
			return err
		}
		SyncDir(dir, nil)
		return nil
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	err = f.Truncate(int64(good))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// replaySegmentFile checks the header matches the filename's window, then
// replays the record stream. good is the file's valid-prefix length in
// bytes — header included once it parses, 0 when it does not — which is
// exactly where a torn-tail heal truncates.
func replaySegmentFile(data []byte, baseSeq uint64, dec wire.Decoder, fn func(*wire.Batch) error) (records int, keys int64, good int, fault error) {
	rest, hdrBase, err := parseSegmentHeader(data)
	if err != nil {
		return 0, 0, 0, err
	}
	if hdrBase != baseSeq {
		return 0, 0, 0, fmt.Errorf("%w: header window %d, filename says %d", ErrSegmentHeader, hdrBase, baseSeq)
	}
	records, keys, good, fault = ReplaySegment(rest, dec, fn)
	return records, keys, segHeaderSize + good, fault
}

// parseSegmentHeader validates a segment's fixed header and returns the
// record bytes after it.
func parseSegmentHeader(data []byte) (rest []byte, baseSeq uint64, err error) {
	if len(data) < segHeaderSize {
		return nil, 0, fmt.Errorf("%w: %d bytes", ErrSegmentHeader, len(data))
	}
	if string(data[:4]) != segMagic {
		return nil, 0, fmt.Errorf("%w: magic % x", ErrSegmentHeader, data[:4])
	}
	if data[4] != segVersion || data[5] != 0 {
		return nil, 0, fmt.Errorf("%w: version %d flags %d", ErrSegmentHeader, data[4], data[5])
	}
	return data[segHeaderSize:], binary.LittleEndian.Uint64(data[6:14]), nil
}

// ReplaySegment decodes one segment's record bytes (header already
// stripped), calling fn per batch, and returns what it applied, the byte
// length of the valid record prefix (the last good record boundary, where
// a torn-tail heal truncates), and the first fault. A nil fault is a
// clean end on a record boundary. A decode fault stops the replay at the
// last good boundary — the caller decides whether that is a tolerable
// torn tail (final segment) or fatal corruption (any sealed segment); an
// fn error is wrapped with ErrApply and is always fatal. ReplaySegment
// never panics on arbitrary input (FuzzWALDecode holds it to that).
func ReplaySegment(data []byte, dec wire.Decoder, fn func(*wire.Batch) error) (records int, keys int64, good int, fault error) {
	var batch wire.Batch
	br := bytes.NewReader(data)
	r := wire.NewReader(br, dec)
	for {
		err := r.Next(&batch)
		if err == io.EOF {
			return records, keys, good, nil
		}
		if err != nil {
			return records, keys, good, err
		}
		if err := fn(&batch); err != nil {
			return records, keys, good, fmt.Errorf("%w: %w", ErrApply, err)
		}
		records++
		keys += int64(batch.Rows())
		// The reader consumes exactly one frame per Next, so the unread
		// count marks the record boundary the applied prefix ends on.
		good = len(data) - br.Len()
	}
}
