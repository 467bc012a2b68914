package main

// live.go is the write side of sasserve: named live summaries accept
// weighted keys over HTTP (columnar JSON or binary frames; see ingest.go)
// into long-lived core.Builders and periodically publish immutable
// snapshots into the same serving map the file-backed summaries use. The
// read path never changes: a snapshot rotation compiles a fully-formed
// index off to the side and swaps the whole entry under the store lock,
// exactly like a SIGHUP reload, so concurrent queries see either the
// previous epoch or the new one, never a partial index.
//
// The snapshot write path (writeSnapshotFile) and the WAL hooks make
// this package part of the durability contract, so the durable analyzer
// checks its Sync/Close/Rename error handling and open flags:
//
//sasvet:durable
//
// Ingestion is explicitly bounded. Each live summary has one core.Builder
// — the paper's §5 bounded stream reservoir over the whole stream — fed by
// one worker goroutine draining a bounded batch queue. Requests decode
// and validate on their own goroutines; only PushBatch is serialized. When
// the queue is full the endpoint pushes back instead of buffering without
// bound: it answers 429 with a Retry-After hint.
//
// With -snapshot-dir set, every published snapshot is also persisted as a
// numbered SAS2 file (written to a temp name, then renamed, so a crash
// never leaves a torn file) and the newest one is recovered on startup.
// The recovered summary covers the pre-restart stream and the restarted
// builder covers the post-restart stream — disjoint populations — so each
// rotation merges them with core.MergeSummaries, keeping estimates
// unbiased across restarts.
//
// With -wal-sync=always|interval (the default, interval, applies whenever
// -snapshot-dir is set), acknowledged batches are additionally written to
// a per-summary write-ahead log (internal/wal) *before* the ack leaves the
// server, closing the gap between acks and snapshots: a kill -9, OOM, or
// panic loses no acknowledged key, and under "always" neither does power
// loss. The crash-consistency invariant is enforced here, not in the wal
// package: a per-summary walMu makes {capacity check, WAL append, queue
// handoff} atomic against each other and against rotation's cut, and the
// cut itself is a barrier — the worker parks at a marker while the builder
// is snapshotted — so the records in WAL segments sealed by the cut are
// exactly the records the snapshot covers. Startup recovery is then
// newest-loadable-snapshot plus a replay of the WAL segments the snapshot
// does not cover, tolerating a torn final record (the one write a dying
// process can have left half-finished).

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"structaware/internal/cliutil"
	"structaware/internal/core"
	"structaware/internal/fault"
	"structaware/internal/structure"
	"structaware/internal/wal"
	"structaware/internal/wire"
)

// Crashpoint names (see internal/fault): the three instants where a crash
// is most likely to expose a durability bug, each exercised by the
// recovery torture tests.
const (
	faultPostAck   = "post-ack-pre-sync"    // ingest ack written, background WAL fsync pending
	faultPreRotate = "post-sync-pre-rotate" // WAL cut sealed + synced, snapshot not yet written
	faultMidRename = "mid-snapshot-rename"  // snapshot temp file written, rename pending
)

// liveConfig is the configuration shared by every live summary.
type liveConfig struct {
	size     int           // target sample size of each published snapshot (reservoir: 5×size keys)
	seed     uint64        // construction seed
	dir      string        // snapshot persistence directory ("" = in-memory only)
	interval time.Duration // automatic rotation period (0 = manual snapshots only)
	queue    int           // pending-batch queue cap per summary (0 = defaultIngestQueue)

	// Write-ahead log of acknowledged batches (-wal-sync); effective only
	// with dir set. The zero value (wal.PolicyOff) keeps snapshot-only
	// durability. The log runs at wal's default fsync period and segment
	// size.
	walSync wal.Policy
}

// walEnabled reports whether live summaries keep a write-ahead log.
func (lc liveConfig) walEnabled() bool {
	return lc.dir != "" && lc.walSync != wal.PolicyOff
}

// defaultIngestQueue is the per-summary pending-batch cap applied when
// liveConfig.queue is 0: enough to keep the worker busy across transport
// jitter, small enough that a stalled worker surfaces as backpressure
// (429) in well under a second, not as unbounded memory.
const defaultIngestQueue = 64

func (lc liveConfig) queueCap() int {
	if lc.queue <= 0 {
		return defaultIngestQueue
	}
	return lc.queue
}

// keepSnapshots is how many persisted snapshot files are retained per live
// summary; older ones are pruned (best effort) after each successful write.
const keepSnapshots = 3

// errNoLiveData reports a snapshot request before any positive-weight key
// has been pushed (and with no recovered snapshot to fall back on).
var errNoLiveData = errors.New("live summary has no data yet")

// errIngestQueueFull reports an enqueue against a full ingest queue — the
// HTTP 429 case.
var errIngestQueueFull = errors.New("ingest queue is full")

// errIngestStopped reports an enqueue after shutdown began.
var errIngestStopped = errors.New("live ingestion has stopped")

// ingestJob is one unit of queue work: a batch to push, or (batch == nil)
// a marker whose done channel closes once the worker reaches it — the
// queue is FIFO, so a reached marker proves every batch enqueued before it
// is in the builder. A marker with resume set is a rotation barrier: after
// closing done the worker parks until resume closes, and in between the
// builder belongs to the rotation.
type ingestJob struct {
	batch  *ingestBatch
	done   chan struct{}
	resume chan struct{}
}

// liveSummary is one writable summary: one Builder, fed by one worker
// goroutine through one bounded queue. Each field's comment names what
// orders access to it. Lock order: rotMu before walMu.
type liveSummary struct {
	// Set by initLive before the summary is published; read-only after.
	name string
	axes []structure.Axis
	cfg  core.Config // the builder's config; rotation merges seed cfg.Seed+seq

	// b is never locked; channel handoffs order it. recoverWAL owns it
	// before the worker starts (the go statement), the worker owns it while
	// running, and rotate owns it from a barrier marker's done to its
	// resume, or once exited has closed.
	b *core.Builder
	// q is the worker's FIFO of batches and markers, capacity
	// liveConfig.queueCap. Every send holds walMu; closeLive closes it
	// under walMu.
	q chan ingestJob
	// exited closes when the worker returns, after draining the closed q.
	exited chan struct{}

	// accepted counts keys acked by this process, replayed ones included.
	// It grows under walMu right after the send that queues the keys, so a
	// load under walMu counts exactly the keys ahead of the queue's tail.
	// The ack path loads it lock-free.
	accepted atomic.Int64
	// dirty marks keys accepted since the last published snapshot. enqueue
	// sets it; rotate clears it under rotMu and sets it again on failure.
	dirty atomic.Bool

	// walMu serializes every send on q, so enqueue's capacity check is
	// exact (only the worker consumes) and WAL order is queue order, and
	// excludes producers across the rotation cut, so a record lands on a
	// well-defined side of every snapshot. enqueue sends only after its
	// check passed, so it never waits; the one send that can wait while
	// walMu is held is cutBarrier's marker on a full queue, and it waits
	// for at most one PushBatch: the worker never takes walMu, and rotMu
	// keeps a second barrier out until rotate has released the first.
	walMu   sync.Mutex
	stopped bool     // walMu: set once by closeLive; no send on q follows it
	wal     *wal.Log // set before the worker starts; Append and Cut under walMu

	// rotMu serializes rotations (ticker, forced, and the shutdown flush)
	// so they cannot publish out of order. initLive sets base, seq and pub
	// from recovery before the summary is published.
	rotMu sync.Mutex
	base  *core.Summary // rotMu: newest persisted snapshot of a previous process
	seq   uint64        // rotMu: newest snapshot attempt sequence (consumed even by failures)
	// pub is the newest attempt that actually published (installed an
	// entry), stored under rotMu. The ack path reports it lock-free instead
	// of seq: clients polling pushResponse.Snapshot to await durability
	// must never observe a number no snapshot ever published.
	pub atomic.Uint64
}

// enqueue hands one validated batch to the worker, transferring ownership
// of the batch, or returns errIngestQueueFull (the handler's 429) when the
// queue is full.
//
// With a WAL, the batch is appended (and made as durable as the sync
// policy promises) before the queue handoff, all under walMu, which is
// what makes the ack that follows crash-safe. The ordering matters twice
// over: backpressure is checked first, so a 429 leaves no WAL record, and
// the append precedes the send, because a successful send transfers batch
// ownership to the worker. The capacity check is exact rather than
// advisory because every sender holds walMu and only the worker consumes:
// once it passes, the send below cannot block.
func (ls *liveSummary) enqueue(b *ingestBatch) error {
	ls.walMu.Lock()
	defer ls.walMu.Unlock()
	if ls.stopped {
		return errIngestStopped
	}
	if len(ls.q) == cap(ls.q) {
		return errIngestQueueFull
	}
	if ls.wal != nil {
		if err := ls.wal.Append(b.Coords, b.Weights); err != nil {
			// Nothing was enqueued: the caller reports the failure (503)
			// and the record, if it made it to disk, is an unacknowledged
			// tail a future replay may or may not include — exactly the
			// contract for an errored request.
			return fmt.Errorf("wal append: %w", err)
		}
	}
	// The send transfers batch ownership to the worker, which may push and
	// recycle it immediately — size the batch before the send, never touch
	// it after.
	rows := int64(b.Rows())
	ls.q <- ingestJob{batch: b}
	ls.accepted.Add(rows)
	ls.dirty.Store(true)
	return nil
}

// cutBarrier freezes the ingest pipeline at one instant: holding walMu (no
// producer can be mid-append) it cuts the WAL into snapshot attempt window
// seq, counts the keys accepted so far, and queues a barrier marker behind
// them. Every record appended before the call is ahead of the marker, in a
// segment the cut sealed, and in pushed; every later one is behind the
// marker and in a segment with baseSeq >= seq. The caller receives from
// parked — once it is closed the builder holds exactly the pushed keys and
// belongs to the caller — snapshots it, and calls release. After closeLive
// there is no worker to park: parked is the exit channel, and the drained
// builder stays the caller's.
func (ls *liveSummary) cutBarrier(seq uint64) (pushed int64, parked <-chan struct{}, release func(), err error) {
	ls.walMu.Lock()
	defer ls.walMu.Unlock()
	if ls.wal != nil {
		if err := ls.wal.Cut(seq); err != nil {
			return 0, nil, nil, err
		}
	}
	pushed = ls.accepted.Load()
	if ls.stopped {
		return pushed, ls.exited, func() {}, nil
	}
	done, resume := make(chan struct{}), make(chan struct{})
	ls.q <- ingestJob{done: done, resume: resume}
	return pushed, done, func() { close(resume) }, nil
}

// ingestWorker is a live summary's drain loop: pop a job, push it into the
// builder, recycle the batch. It exits when closeLive closes the queue,
// after draining every remaining job. Batches are fully validated before
// they are accepted, so a push failure here is an internal invariant
// break, logged rather than silently swallowed.
func (st *store) ingestWorker(ls *liveSummary) {
	defer close(ls.exited)
	for job := range ls.q {
		if job.batch == nil {
			close(job.done)
			if job.resume != nil {
				// Rotation barrier: the builder is the rotation's until
				// resume closes.
				<-job.resume
			}
			continue
		}
		if err := ls.b.PushBatch(job.batch.Coords, job.batch.Weights); err != nil {
			st.logf("live %q: push of an accepted batch failed: %v", ls.name, err)
		}
		job.batch.release()
	}
}

// initLive creates the live summaries (after loadAll: recovery installs
// serving entries into the loaded map) and starts their workers.
// Specs pair each name with a textual axis description, e.g.
// net=bittrie:32,bittrie:32. The HTTP listener may already be serving
// (/readyz answers 503 throughout), so the live map is built privately and
// published under the store lock at the end.
func (st *store) initLive(specs []cliutil.Assignment, lc liveConfig) error {
	if lc.dir != "" {
		if err := os.MkdirAll(lc.dir, 0o755); err != nil {
			return err
		}
		// A crash between writing and renaming a snapshot temp file leaves
		// an orphan no later rotation would ever clean up.
		sweepTmpFiles(lc.dir, st.logf)
	}
	st.liveCfg = lc
	lives := make(map[string]*liveSummary, len(specs))
	var order []string
	for _, sp := range specs {
		axes, err := structure.ParseAxisSpec(sp.Value)
		if err != nil {
			return fmt.Errorf("live summary %q: %w", sp.Name, err)
		}
		cfg := core.Config{Size: lc.size, Seed: lc.seed}
		b, err := core.NewBuilder(axes, cfg)
		if err != nil {
			return fmt.Errorf("live summary %q: %w", sp.Name, err)
		}
		ls := &liveSummary{
			name: sp.Name, axes: axes, cfg: cfg, b: b,
			q: make(chan ingestJob, lc.queueCap()), exited: make(chan struct{}),
		}
		if lc.dir != "" {
			loadedSeq, err := st.recoverLive(ls)
			if err != nil {
				return err
			}
			if lc.walEnabled() {
				if err := st.recoverWAL(ls, lc, loadedSeq); err != nil {
					return err
				}
			}
		}
		go st.ingestWorker(ls)
		lives[sp.Name] = ls
		order = append(order, sp.Name)
	}
	st.mu.Lock()
	st.lives, st.liveOrder = lives, order
	st.mu.Unlock()
	return nil
}

// recoverWAL finishes a live summary's startup recovery: replay the WAL
// records the loaded snapshot (seq loadedSeq; 0 = none) does not cover
// into the builder, then open a fresh log whose first segment sorts
// after every snapshot attempt any previous process ever made — snapshot
// files and segment windows both witness attempts, and the maximum of the
// two is where this process resumes numbering. Replayed keys count as
// accepted (they are in this process's builder and will be in its next
// snapshot) and dirty the summary so that snapshot actually happens. The
// worker is not running yet, so the builder is pushed directly, in WAL
// order.
func (st *store) recoverWAL(ls *liveSummary, lc liveConfig, loadedSeq uint64) error {
	segs, err := wal.List(lc.dir, ls.name)
	if err != nil {
		return fmt.Errorf("live summary %q: list wal: %w", ls.name, err)
	}
	for _, sg := range segs {
		if sg.BaseSeq > ls.seq {
			ls.seq = sg.BaseSeq
		}
	}
	dec := wire.Decoder{Dims: len(ls.axes), MaxRows: maxKeysPerPush}
	stats, err := wal.Replay(lc.dir, ls.name, loadedSeq, dec, func(b *wire.Batch) error {
		if err := validateBatch(ls.axes, b); err != nil {
			return err
		}
		return ls.b.PushBatch(b.Coords, b.Weights)
	})
	if err != nil {
		return fmt.Errorf("live summary %q: wal replay: %w (a corrupt sealed segment, or a -live domain "+
			"that no longer matches; move the .wal files aside to start from the snapshot alone)", ls.name, err)
	}
	if stats.Records > 0 {
		ls.accepted.Add(stats.Keys)
		ls.dirty.Store(true)
		st.logf("replayed wal of live %q: %d keys in %d records from %d segments (snapshot %d, torn tail: %v)",
			ls.name, stats.Keys, stats.Records, stats.Segments, loadedSeq, stats.Torn)
	}
	ls.wal, err = wal.Open(wal.Options{
		Dir: lc.dir, Name: ls.name, BaseSeq: ls.seq, Policy: lc.walSync, Logf: st.logf,
	})
	if err != nil {
		return fmt.Errorf("live summary %q: open wal: %w", ls.name, err)
	}
	// Segments below the loaded snapshot are fully covered by it; a crash
	// that skipped truncation (or a bit-rot fallback) may have left some.
	ls.wal.Truncate(loadedSeq)
	return nil
}

// closeWALs seals every live summary's write-ahead log. Called after the
// final shutdown flush: the logs must stay open through it so the flush's
// cut and truncation are ordinary rotations.
func (st *store) closeWALs() {
	for _, name := range st.liveOrder {
		ls := st.lives[name]
		if ls.wal == nil {
			continue
		}
		if err := ls.wal.Close(); err != nil {
			st.logf("close wal of live %q: %v", name, err)
		}
	}
}

// closeLive stops ingestion for good: no new batches are accepted (a
// later push answers 503), the workers drain their queues and exit.
// Callers stop the HTTP server first; when closeLive returns, every
// acknowledged key is in a builder, which is what makes the final rotation
// flush complete.
func (st *store) closeLive() {
	for _, name := range st.liveOrder {
		ls := st.lives[name]
		ls.walMu.Lock()
		if !ls.stopped {
			ls.stopped = true
			close(ls.q)
		}
		ls.walMu.Unlock()
	}
	for _, name := range st.liveOrder {
		<-st.lives[name].exited
	}
}

// recoverLive loads the newest loadable persisted snapshot of ls, if any:
// it becomes both the initial serving entry (queries work immediately
// after a restart) and the merge base covering the pre-restart stream. A
// snapshot that fails to load (e.g. torn by power loss mid-write) is
// logged and skipped in favor of the next-newest retained one — a single
// bad file must not wedge startup while valid history sits beside it. Only
// a dir full of snapshots with none loadable is fatal. New snapshots
// always number above every file found, loadable or not. Returns the
// sequence number of the snapshot actually loaded (0 when none): the WAL
// replay threshold.
func (st *store) recoverLive(ls *liveSummary) (uint64, error) {
	snaps, err := listSnapshots(st.liveCfg.dir, ls.name)
	if err != nil || len(snaps) == 0 {
		return 0, err
	}
	ls.seq = snaps[0].seq
	var lastErr error
	for _, sn := range snaps {
		e, err := loadSummaryFile(ls.name, sn.path, time.Now())
		if err == nil {
			err = sameDomain(ls.axes, e.idx.Summary().Axes)
		}
		if err != nil {
			lastErr = err
			st.logf("recover live %q: skipping snapshot %s: %v", ls.name, sn.path, err)
			continue
		}
		e.live, e.seq = true, sn.seq
		ls.base = e.idx.Summary()
		ls.pub.Store(sn.seq)
		st.install(e)
		st.logf("recovered live %q from %s (snapshot %d, %d keys)", ls.name, sn.path, sn.seq, e.idx.Size())
		return sn.seq, nil
	}
	return 0, fmt.Errorf("recover live summary %q: no loadable snapshot among %d files: %w", ls.name, len(snaps), lastErr)
}

// sameDomain checks that a recovered snapshot describes the key domain the
// -live flag declares (kind and coordinate space per axis).
func sameDomain(want, got []structure.Axis) error {
	if len(want) != len(got) {
		return fmt.Errorf("domain has %d axes, -live declares %d", len(got), len(want))
	}
	for d := range want {
		if got[d].Kind != want[d].Kind || got[d].DomainSize() != want[d].DomainSize() {
			return fmt.Errorf("axis %d is %s/%d, -live declares %s/%d",
				d, got[d].Kind, got[d].DomainSize(), want[d].Kind, want[d].DomainSize())
		}
	}
	return nil
}

// rotate publishes a new snapshot of ls: cut the WAL and park the worker
// at a barrier, snapshot the builder, release the worker, merge with the
// recovered base when one exists, compile the index, persist when
// configured, truncate the WAL segments the persisted snapshot covers, and
// swap the serving entry. Without a base the published summary is exactly
// what Finalize would return for the stream so far. The base covers the
// pre-restart stream and the builder the post-restart one, so the HT merge
// keeps estimates unbiased for the whole stream. When force is false a
// summary with no new keys since its last snapshot is skipped (the
// rotation loop's idle case) and rotate returns (nil, nil).
//
// Attempt sequence numbers are consumed even by failed rotations: the
// WAL's coverage rule ("segment baseSeq B is covered exactly by snapshots
// with seq > B") only stays crash-consistent if no later attempt can reuse
// a window an earlier cut already opened. Snapshot files may therefore
// have gaps in their numbering after failures; recovery already tolerates
// that.
func (st *store) rotate(ls *liveSummary, force bool) (*entry, error) {
	ls.rotMu.Lock()
	defer ls.rotMu.Unlock()
	now := time.Now()
	// The snapshot covers every key accepted so far; later accepts
	// re-dirty, and a failed rotation re-dirties so the next tick retries.
	if !ls.dirty.Swap(false) && !force {
		return nil, nil
	}
	ls.seq++
	seq := ls.seq

	pushed, parked, release, err := ls.cutBarrier(seq)
	if err != nil {
		st.redirty(ls)
		return nil, err
	}
	// Every record in a segment the cut sealed is ahead of the barrier
	// marker; once the worker parks on it, those records are all in the
	// builder, and nothing newer can get in until release.
	<-parked
	fault.Point(faultPreRotate)
	snap, err := ls.b.Snapshot()
	release() // ingestion resumes; the merge/index/persist work below is off the hot path

	sum := snap
	switch {
	case errors.Is(err, core.ErrNoData):
		if ls.base == nil {
			return nil, errNoLiveData
		}
		// A restart with nothing pushed yet republishes the recovered base.
		sum = ls.base
	case err != nil:
		st.redirty(ls)
		return nil, err
	case ls.base != nil:
		// The seed varies per epoch but stays deterministic.
		sum, err = core.MergeSummaries(ls.cfg.Size, ls.cfg.Seed+seq, ls.base, snap)
		if err != nil {
			st.redirty(ls)
			return nil, err
		}
	}
	idx, err := sum.Index()
	if err != nil {
		st.redirty(ls)
		return nil, err
	}
	path := "(live)"
	if st.liveCfg.dir != "" {
		path, err = writeSnapshotFile(st.liveCfg.dir, ls.name, seq, sum)
		if err != nil {
			st.redirty(ls)
			return nil, err
		}
		if ls.wal != nil {
			// The snapshot is durably renamed: the records in segments
			// below its window are redundant now and only now.
			ls.wal.Truncate(seq)
		}
		pruneSnapshots(st.liveCfg.dir, ls.name, keepSnapshots)
	}

	e := &entry{
		name: ls.name, path: path, idx: idx, loadedAt: now,
		live: true, seq: seq, pushed: pushed,
	}
	// install gives the new epoch its own empty answer cache — publishing
	// the snapshot is what invalidates every answer cached for the old one.
	st.install(e)
	ls.pub.Store(seq)
	st.logf("snapshot %d of live %q: %d keys from %d pushed (%s)", seq, ls.name, sum.Size(), pushed, path)
	return e, nil
}

// redirty restores the pending-keys mark after a failed rotation so the
// next tick retries instead of silently dropping the epoch.
func (st *store) redirty(ls *liveSummary) {
	ls.dirty.Store(true)
}

// rotateAll rotates every live summary (skipping clean ones unless force),
// logging failures; it is the body of the rotation tick and the shutdown
// flush.
func (st *store) rotateAll(force bool) {
	for _, name := range st.liveOrder {
		if _, err := st.rotate(st.lives[name], force); err != nil && !errors.Is(err, errNoLiveData) {
			st.logf("snapshot of live %q failed: %v", name, err)
		}
	}
}

// rotationLoop publishes snapshots of dirty live summaries every interval
// until ctx is cancelled.
func (st *store) rotationLoop(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			st.rotateAll(false)
		}
	}
}

// handleForceSnapshot publishes a snapshot immediately (bypassing the
// rotation interval) and reports the new serving epoch.
func (st *store) handleForceSnapshot(w http.ResponseWriter, _ *http.Request, ls *liveSummary) {
	e, err := st.rotate(ls, true)
	if errors.Is(err, errNoLiveData) {
		writeError(w, http.StatusConflict, "live summary %q has no data to snapshot (POST keys first)", ls.name)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "snapshot failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"summary":        e.name,
		"snapshot":       e.seq,
		"size":           e.idx.Size(),
		"pushed":         e.pushed,
		"total_estimate": e.idx.EstimateTotal(),
		"path":           e.path,
	})
}

// ---- Snapshot persistence ---------------------------------------------------

// snapshotPath names snapshot seq of a live summary: <dir>/<name>-<seq>.sas
// with a fixed-width sequence number, so lexicographic and numeric order
// agree for the first 10^8 snapshots.
func snapshotPath(dir, name string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%08d.sas", name, seq))
}

// parseSnapshotSeq extracts the sequence number from a snapshot file name
// produced by snapshotPath for this summary name.
func parseSnapshotSeq(filename, name string) (uint64, bool) {
	mid, found := strings.CutPrefix(filename, name+"-")
	if !found {
		return 0, false
	}
	mid, found = strings.CutSuffix(mid, ".sas")
	if !found {
		return 0, false
	}
	seq, err := strconv.ParseUint(mid, 10, 64)
	return seq, err == nil
}

// snapshotFile is one persisted snapshot of a live summary.
type snapshotFile struct {
	seq  uint64
	path string
}

// listSnapshots returns a live summary's snapshot files, newest first. A
// missing directory simply means no snapshots.
func listSnapshots(dir, name string) ([]snapshotFile, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var snaps []snapshotFile
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		if v, match := parseSnapshotSeq(de.Name(), name); match {
			snaps = append(snaps, snapshotFile{v, filepath.Join(dir, de.Name())})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq > snaps[j].seq })
	return snaps, nil
}

// writeSnapshotFile persists one snapshot atomically: serialize to a temp
// file in the same directory, fsync it, then rename over the final name,
// so neither a process crash mid-write nor an OS crash right after the
// rename leaves a torn .sas file under a recoverable name. (Recovery
// tolerates torn files anyway — see recoverLive — this keeps them off the
// common path.)
func writeSnapshotFile(dir, name string, seq uint64, sum *core.Summary) (string, error) {
	path := snapshotPath(dir, name, seq)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return "", err
	}
	if _, err := sum.WriteTo(f); err != nil {
		err = errors.Join(err, f.Close())
		os.Remove(tmp)
		return "", err
	}
	if err := f.Sync(); err != nil {
		err = errors.Join(err, f.Close())
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	fault.Point(faultMidRename)
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", err
	}
	// Make the rename itself durable: without the directory fsync a power
	// loss can forget the new name even though its bytes are safe, and the
	// WAL truncation that follows would then have destroyed the only copy.
	wal.SyncDir(dir, nil)
	return path, nil
}

// sweepTmpFiles deletes orphaned snapshot temp files: a crash between
// writing <name>-<seq>.sas.tmp and renaming it leaves the temp behind, and
// since every rotation writes a fresh seq, nothing would ever reclaim it.
func sweepTmpFiles(dir string, logf func(format string, args ...any)) {
	orphans, err := filepath.Glob(filepath.Join(dir, "*.sas.tmp"))
	if err != nil {
		return
	}
	for _, p := range orphans {
		if err := os.Remove(p); err != nil {
			logf("sweep orphan %s: %v", p, err)
		} else {
			logf("removed orphaned snapshot temp file %s", p)
		}
	}
}

// pruneSnapshots removes all but the newest keep snapshot files of one live
// summary, best effort (a failed removal is retried on the next rotation).
func pruneSnapshots(dir, name string, keep int) {
	snaps, err := listSnapshots(dir, name)
	if err != nil || len(snaps) <= keep {
		return
	}
	for _, s := range snaps[keep:] {
		os.Remove(s.path)
	}
}
