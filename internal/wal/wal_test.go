package wal

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"structaware/internal/wire"
)

// testBatch builds a deterministic 2-axis batch of n keys offset by base.
func testBatch(base, n int) (coords [][]uint64, weights []float64) {
	coords = [][]uint64{make([]uint64, n), make([]uint64, n)}
	weights = make([]float64, n)
	for i := 0; i < n; i++ {
		coords[0][i] = uint64(base + i)
		coords[1][i] = uint64(2*(base+i) + 1)
		weights[i] = float64(base+i)/4 + 0.5
	}
	return coords, weights
}

// collect replays dir/name from minSeq and flattens the applied records.
func collect(t *testing.T, dir, name string, minSeq uint64) (Stats, [][2]uint64, []float64) {
	t.Helper()
	var keys [][2]uint64
	var weights []float64
	st, err := Replay(dir, name, minSeq, wire.Decoder{Dims: 2}, func(b *wire.Batch) error {
		for i := range b.Weights {
			keys = append(keys, [2]uint64{b.Coords[0][i], b.Coords[1][i]})
			weights = append(weights, b.Weights[i])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return st, keys, weights
}

func openTestLog(t *testing.T, dir string, base uint64, opt func(*Options)) *Log {
	t.Helper()
	opts := Options{Dir: dir, Name: "net", BaseSeq: base, Policy: PolicyInterval, Logf: t.Logf}
	if opt != nil {
		opt(&opts)
	}
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, 0, nil)
	var wantKeys [][2]uint64
	var wantWeights []float64
	for b := 0; b < 5; b++ {
		coords, weights := testBatch(b*10, 7)
		if err := l.Append(coords, weights); err != nil {
			t.Fatalf("Append %d: %v", b, err)
		}
		for i := range weights {
			wantKeys = append(wantKeys, [2]uint64{coords[0][i], coords[1][i]})
			wantWeights = append(wantWeights, weights[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st, keys, weights := collect(t, dir, "net", 0)
	if st.Records != 5 || st.Keys != 35 || st.Torn {
		t.Fatalf("stats = %+v, want 5 records / 35 keys, not torn", st)
	}
	if len(keys) != len(wantKeys) {
		t.Fatalf("replayed %d keys, want %d", len(keys), len(wantKeys))
	}
	for i := range keys {
		if keys[i] != wantKeys[i] || math.Float64bits(weights[i]) != math.Float64bits(wantWeights[i]) {
			t.Fatalf("key %d: got %v/%v want %v/%v", i, keys[i], weights[i], wantKeys[i], wantWeights[i])
		}
	}
}

// TestCutCoverage is the coverage rule itself: records appended before
// Cut(seq) replay against minSeq < seq only; records after replay against
// minSeq <= seq.
func TestCutCoverage(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, 0, nil)
	c1, w1 := testBatch(0, 3)
	if err := l.Append(c1, w1); err != nil {
		t.Fatal(err)
	}
	if err := l.Cut(1); err != nil {
		t.Fatalf("Cut(1): %v", err)
	}
	c2, w2 := testBatch(100, 4)
	if err := l.Append(c2, w2); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A snapshot at seq 1 covers the first batch only.
	_, keys, _ := collect(t, dir, "net", 1)
	if len(keys) != 4 || keys[0][0] != 100 {
		t.Fatalf("replay from 1: got %v, want the 4 post-cut keys", keys)
	}
	// Recovery against an older (or no) snapshot replays both.
	_, keys, _ = collect(t, dir, "net", 0)
	if len(keys) != 7 {
		t.Fatalf("replay from 0: got %d keys, want 7", len(keys))
	}
}

func TestTruncateDeletesCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, 0, nil)
	c, w := testBatch(0, 3)
	if err := l.Append(c, w); err != nil {
		t.Fatal(err)
	}
	if err := l.Cut(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(c, w); err != nil {
		t.Fatal(err)
	}
	l.Truncate(1)
	segs, err := List(dir, "net")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].BaseSeq != 1 {
		t.Fatalf("segments after truncate = %+v, want just window 1", segs)
	}
	// The surviving segment still replays.
	if _, keys, _ := collect(t, dir, "net", 1); len(keys) != 3 {
		t.Fatalf("post-truncate replay lost records")
	}
}

// TestSegmentRollBySize forces size-based rolls and checks replay order
// spans the rolled segments.
func TestSegmentRollBySize(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, 0, func(o *Options) { o.SegmentBytes = 256 })
	for b := 0; b < 6; b++ {
		c, w := testBatch(b*10, 5)
		if err := l.Append(c, w); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := List(dir, "net")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("got %d segments, want rolls at 256 bytes", len(segs))
	}
	st, keys, _ := collect(t, dir, "net", 0)
	if st.Records != 6 || len(keys) != 30 {
		t.Fatalf("stats %+v across rolled segments, want 6 records / 30 keys", st)
	}
	for i := range keys {
		if keys[i][0] != uint64((i/5)*10+i%5) {
			t.Fatalf("key %d out of order after roll: %v", i, keys[i])
		}
	}
}

// TestReopenOrdersAfterCrash simulates the restart path: a second Open on
// the same dir must produce a segment that replays after everything the
// first process wrote, even when the first log was never closed.
func TestReopenOrdersAfterCrash(t *testing.T) {
	dir := t.TempDir()
	l1 := openTestLog(t, dir, 0, nil)
	c, w := testBatch(0, 2)
	if err := l1.Append(c, w); err != nil {
		t.Fatal(err)
	}
	if err := l1.Cut(3); err != nil { // a failed snapshot attempt consumed seq 3
		t.Fatal(err)
	}
	c2, w2 := testBatch(50, 2)
	if err := l1.Append(c2, w2); err != nil {
		t.Fatal(err)
	}
	// No Close: the process "crashed" here. The new log must open a window
	// at least as new as 3 even though the caller only knows of snapshot 0.
	l2 := openTestLog(t, dir, 0, nil)
	c3, w3 := testBatch(90, 2)
	if err := l2.Append(c3, w3); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, keys, _ := collect(t, dir, "net", 0)
	want := []uint64{0, 1, 50, 51, 90, 91}
	if len(keys) != len(want) {
		t.Fatalf("got %d keys, want %d", len(keys), len(want))
	}
	for i, k := range keys {
		if k[0] != want[i] {
			t.Fatalf("replay order broken at %d: got %d want %d (keys %v)", i, k[0], want[i], keys)
		}
	}
}

// TestTornTailRecovery truncates the final segment mid-record and checks
// the valid prefix replays with Torn set.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, 0, nil)
	c, w := testBatch(0, 4)
	if err := l.Append(c, w); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(c, w); err != nil {
		t.Fatal(err)
	}
	path := segmentPath(dir, "net", 0, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	frame := wire.FrameSize(2, 4)
	if err := os.Truncate(path, int64(segHeaderSize+frame+frame/2)); err != nil {
		t.Fatal(err)
	}
	st, keys, _ := collect(t, dir, "net", 0)
	if !st.Torn || st.Records != 1 || len(keys) != 4 {
		t.Fatalf("torn tail: stats %+v, %d keys; want 1 record / 4 keys, torn", st, len(keys))
	}
	// The tolerated tear is healed on disk: the file now ends on the last
	// good record boundary and replays as a cleanly sealed segment.
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(segHeaderSize+frame) {
		t.Fatalf("heal left %v bytes (err %v), want %d", fi.Size(), err, segHeaderSize+frame)
	}
	st, keys, _ = collect(t, dir, "net", 0)
	if st.Torn || st.Records != 1 || len(keys) != 4 {
		t.Fatalf("post-heal replay: stats %+v, %d keys; want 1 clean record", st, len(keys))
	}
}

// TestTornTailHealSurvivesSecondRestart is the double-restart sequence
// that used to wedge startup: a power-loss tear in the final segment, a
// restart (which tolerates the tear and opens a fresh segment after it),
// then another restart. Without the replay-time heal, the torn segment is
// no longer last in List order on the second restart and replay rejects
// it as fatal mid-stream corruption — over acked records it had already,
// correctly, dropped as unacked tail.
func TestTornTailHealSurvivesSecondRestart(t *testing.T) {
	dir := t.TempDir()
	l1 := openTestLog(t, dir, 0, nil)
	c, w := testBatch(0, 4)
	if err := l1.Append(c, w); err != nil {
		t.Fatal(err)
	}
	if err := l1.Append(c, w); err != nil {
		t.Fatal(err)
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}
	frame := wire.FrameSize(2, 4)
	if err := os.Truncate(segmentPath(dir, "net", 0, 0), int64(segHeaderSize+frame+frame/2)); err != nil {
		t.Fatal(err)
	}

	// First restart: replay tolerates (and heals) the tear, then a new log
	// opens a segment that sorts after the torn one.
	if st, _, _ := collect(t, dir, "net", 0); !st.Torn {
		t.Fatalf("first restart: stats %+v, want torn", st)
	}
	l2 := openTestLog(t, dir, 0, nil)
	c2, w2 := testBatch(100, 3)
	if err := l2.Append(c2, w2); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	// Second restart: the once-torn segment is mid-stream now; replay must
	// see it as cleanly sealed and recover both processes' records.
	st, keys, _ := collect(t, dir, "net", 0)
	if st.Torn || st.Records != 2 || len(keys) != 7 {
		t.Fatalf("second restart: stats %+v, %d keys; want 2 clean records / 7 keys", st, len(keys))
	}
}

// TestMidStreamCorruptionFatal flips a byte in a sealed (non-final)
// segment: replay must fail loudly, not skip silently.
func TestMidStreamCorruptionFatal(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, 0, nil)
	c, w := testBatch(0, 4)
	if err := l.Append(c, w); err != nil {
		t.Fatal(err)
	}
	if err := l.Cut(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(c, w); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := segmentPath(dir, "net", 0, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderSize+20] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(dir, "net", 0, wire.Decoder{Dims: 2}, func(*wire.Batch) error { return nil })
	if err == nil {
		t.Fatal("Replay of a corrupt sealed segment succeeded, want error")
	}
}

func TestApplyErrorFatalEvenOnFinalSegment(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, 0, nil)
	c, w := testBatch(0, 4)
	if err := l.Append(c, w); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	_, err := Replay(dir, "net", 0, wire.Decoder{Dims: 2}, func(*wire.Batch) error { return boom })
	if err == nil || !errors.Is(err, ErrApply) {
		t.Fatalf("apply error surfaced as %v, want ErrApply", err)
	}
}

// TestApplyErrorKeepsItsCause: a replay that the apply function stops
// returns an error that errors.Is matches to the function's own error as
// well as to ErrApply, so recovery can tell its causes apart.
func TestApplyErrorKeepsItsCause(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, 0, nil)
	for k := 0; k < 2; k++ {
		c, w := testBatch(k, 3)
		if err := l.Append(c, w); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	refused := errors.New("refused")
	applied := 0
	st, err := Replay(dir, "net", 0, wire.Decoder{Dims: 2}, func(*wire.Batch) error {
		if applied++; applied == 2 {
			return fmt.Errorf("second record: %w", refused)
		}
		return nil
	})
	if !errors.Is(err, ErrApply) || !errors.Is(err, refused) {
		t.Fatalf("apply error surfaced as %v, want ErrApply wrapping the refusal", err)
	}
	if st.Records != 1 {
		t.Fatalf("replay applied %d records before the refusal, want 1", st.Records)
	}
}

func TestPolicyAlwaysRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, 2, func(o *Options) { o.Policy = PolicyAlways })
	c, w := testBatch(0, 3)
	if err := l.Append(c, w); err != nil {
		t.Fatal(err)
	}
	// No Close: under PolicyAlways the append alone must be replayable.
	_, keys, _ := collect(t, dir, "net", 2)
	if len(keys) != 3 {
		t.Fatalf("always-policy append not durable before Close: %d keys", len(keys))
	}
}

func TestIntervalBackgroundSync(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, 0, func(o *Options) { o.SyncEvery = time.Millisecond })
	c, w := testBatch(0, 3)
	if err := l.Append(c, w); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		l.mu.Lock()
		synced := !l.unsynced
		l.mu.Unlock()
		if synced {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background fsync never caught up")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"off", PolicyOff, true},
		{"interval", PolicyInterval, true},
		{"always", PolicyAlways, true},
		{"", PolicyOff, false},
		{"sometimes", PolicyOff, false},
	} {
		got, err := ParsePolicy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
		if tc.ok && got.String() != tc.in {
			t.Errorf("Policy(%q).String() = %q", tc.in, got.String())
		}
	}
}

func TestSegmentNameRoundTrip(t *testing.T) {
	path := segmentPath("d", "net", 7, 3)
	base, sub, ok := parseSegmentName(filepath.Base(path), "net")
	if !ok || base != 7 || sub != 3 {
		t.Fatalf("parseSegmentName(%q) = %d,%d,%v", filepath.Base(path), base, sub, ok)
	}
	for _, bad := range []string{"net-00000007.sas", "other-00000007-0003.wal", "net-x-0003.wal", "net-00000007-y.wal"} {
		if _, _, ok := parseSegmentName(bad, "net"); ok {
			t.Errorf("parseSegmentName(%q) accepted", bad)
		}
	}
	// Summary names containing '-' must still parse: the seq/sub split is
	// anchored at the end of the name prefix.
	p := segmentPath("d", "my-net", 1, 0)
	if base, sub, ok := parseSegmentName(filepath.Base(p), "my-net"); !ok || base != 1 || sub != 0 {
		t.Fatalf("dashed name: parse = %d,%d,%v", base, sub, ok)
	}
}

func TestOpenRejectsPolicyOff(t *testing.T) {
	if _, err := Open(Options{Dir: t.TempDir(), Name: "net", Policy: PolicyOff}); err == nil {
		t.Fatal("Open with PolicyOff succeeded")
	}
}

func TestCutBehindActiveWindow(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, 5, nil)
	if err := l.Cut(4); err == nil || !strings.Contains(err.Error(), "behind") {
		t.Fatalf("Cut behind the active window: %v, want error", err)
	}
	// Same-window cut is legal (a no-op attempt) and must not collide.
	if err := l.Cut(5); err != nil {
		t.Fatalf("Cut to same window: %v", err)
	}
}

// FuzzWALDecode holds ReplaySegment to its contract on arbitrary bytes: no
// panic, and for a valid stream with garbage appended, the valid prefix is
// recovered intact.
func FuzzWALDecode(f *testing.F) {
	c, w := testBatch(0, 4)
	valid, err := wire.AppendFrame(nil, c, w)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte{}, valid...), valid[:17]...))
	f.Add([]byte(segMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := wire.Decoder{Dims: 2, MaxRows: 1 << 10}
		records, keys, good, _ := ReplaySegment(data, dec, func(b *wire.Batch) error {
			if len(b.Coords) != 2 || len(b.Weights) != b.Rows() {
				t.Fatalf("decoded batch malformed: %d coords, %d weights", len(b.Coords), len(b.Weights))
			}
			return nil
		})
		if records < 0 || keys < 0 || good < 0 || good > len(data) {
			t.Fatalf("stats out of range: %d records, %d keys, %d good of %d bytes", records, keys, good, len(data))
		}

		// Torn-tail contract: any prefix of a valid 2-record stream recovers
		// exactly the whole records the prefix contains, and reports the
		// boundary they end on (where a heal would truncate).
		stream := append(append([]byte{}, valid...), valid...)
		cut := len(data) % (len(stream) + 1)
		records, keys, good, fault := ReplaySegment(stream[:cut], dec, func(*wire.Batch) error { return nil })
		wantRecords := cut / len(valid)
		if records != wantRecords || keys != int64(4*wantRecords) {
			t.Fatalf("prefix of %d bytes: %d records / %d keys, want %d / %d", cut, records, keys, wantRecords, 4*wantRecords)
		}
		if good != wantRecords*len(valid) {
			t.Fatalf("prefix of %d bytes: good = %d, want boundary %d", cut, good, wantRecords*len(valid))
		}
		if onBoundary := cut%len(valid) == 0; onBoundary != (fault == nil) {
			t.Fatalf("prefix of %d bytes: fault = %v, boundary = %v", cut, fault, onBoundary)
		}
	})
}

// TestReplayEmptyAndHeaderOnlySegments: a crash right after openSegment
// leaves a header-only (or even empty) final segment; both replay clean.
func TestReplayEmptyAndHeaderOnlySegments(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, 0, nil)
	if err := l.Close(); err != nil { // header-only segment
		t.Fatal(err)
	}
	st, keys, _ := collect(t, dir, "net", 0)
	if st.Records != 0 || len(keys) != 0 || st.Torn {
		t.Fatalf("header-only segment: stats %+v", st)
	}
	// Zero-byte final segment (crash between create and header write). It
	// holds no records, so the heal removes it rather than leaving a
	// tombstone every later replay would re-count as torn.
	if err := os.WriteFile(segmentPath(dir, "net", 0, 1), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	st, _, _ = collect(t, dir, "net", 0)
	if !st.Torn {
		t.Fatalf("empty final segment should count as torn, got %+v", st)
	}
	if _, err := os.Stat(segmentPath(dir, "net", 0, 1)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("headerless segment not removed by heal: %v", err)
	}
	st, _, _ = collect(t, dir, "net", 0)
	if st.Torn {
		t.Fatalf("post-heal replay still torn: %+v", st)
	}
}

func TestListOrder(t *testing.T) {
	dir := t.TempDir()
	for _, sg := range [][2]uint64{{2, 0}, {0, 1}, {0, 0}, {10, 0}, {2, 3}} {
		if err := os.WriteFile(segmentPath(dir, "net", sg[0], sg[1]), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := List(dir, "net")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, sg := range segs {
		got = append(got, fmt.Sprintf("%d.%d", sg.BaseSeq, sg.Sub))
	}
	want := "0.0 0.1 2.0 2.3 10.0"
	if strings.Join(got, " ") != want {
		t.Fatalf("List order = %v, want %s", got, want)
	}
}
