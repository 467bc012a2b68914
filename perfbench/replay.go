package main

// replay.go is the traced run's layer replay: the run's own seeded inputs
// go through the layers' public functions in-process, on one goroutine, in
// the order sasserve calls them, with a span around every call.
//
//	per frame:          Decode → WAL Append → PushBatch on shard i mod nproc
//	                    (and a WAL Sync every 100 ms, the server's cadence)
//	per rotation:       Snapshot per shard → MergeSummaries → Index →
//	                    persist → WAL Cut / Truncate
//	after the tail:     WAL Replay, then ReadSummary + Index
//	per query:          cache Get → on a miss: ParseRange + Check →
//	                    EstimateRange → EstimateBound → cache Put
//	on the dataset:     ipps.Threshold, kd.Build, engine.Close, core.Build
//
// Stages of the server with no public entry point — validation, queue
// wait, net/http and JSON rendering — do not appear; they are what the
// sasserve.residual_* metrics leave over.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"structaware/internal/anscache"
	"structaware/internal/backend"
	"structaware/internal/core"
	"structaware/internal/engine"
	"structaware/internal/ipps"
	"structaware/internal/kd"
	"structaware/internal/structure"
	"structaware/internal/wal"
	"structaware/internal/wire"
	"structaware/internal/xmath"
)

const (
	walSyncEvery  = 100 * time.Millisecond // the server's interval-policy fsync period
	walSegBytes   = 64 << 20               // the server's default segment size
	boundDelta    = 0.05                   // the server's 95% confidence bounds
	replayQueries = 50000                  // cap on the queries a replay runs
)

// replayPlan is what a workload hands the replay: the frames it pushed,
// where it rotated, and the queries it sent.
type replayPlan struct {
	pool        *keyPool
	frames      int // frames pushed, cycling the pool from frame 0
	rotateEvery int // frames between rotations; 0 rotates once, after the frames
	tail        int // frames pushed after the last rotation, replayed as recovery
	qs          queries
	pick        func(i int) int
	queries     int
	ds          *structure.Dataset // the dataset of the build-side layers
}

// replayStats are the replay's counts.
type replayStats struct {
	keys, walBytes int64
	queries        int64
	hits           int64
}

// replay runs the plan and returns the layer times of its spans.
func (r *run) replay(p replayPlan) (layerTimes, replayStats, error) {
	var st replayStats
	dir := filepath.Join(r.work, "replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return layerTimes{}, st, err
	}
	rec := newRecorder(time.Now())
	call := func(name string, req int64, fn func() error) error {
		id := rec.begin(name, req)
		err := fn()
		rec.end(id)
		return err
	}
	axes := p.pool.ds.Axes
	shards := make([]*core.Builder, nconns())
	for i := range shards {
		// Configured like the server's shard i: -live-size 4096, the
		// default -live-seed 1, the default buffer.
		b, err := core.NewBuilder(axes, core.Config{Size: buildSize, Seed: 1 + uint64(i)})
		if err != nil {
			return layerTimes{}, st, err
		}
		shards[i] = b
	}
	// The log's own interval loop is pushed out of the way; the replay
	// calls Sync itself at the server's cadence, inside a span.
	log, err := wal.Open(wal.Options{Dir: dir, Name: summary, Policy: wal.PolicyInterval,
		SegmentBytes: walSegBytes, SyncEvery: time.Hour})
	if err != nil {
		return layerTimes{}, st, err
	}
	defer log.Close()
	dec := wire.Decoder{Dims: len(axes), MaxRows: frameKeys}
	var batch wire.Batch
	lastSync := time.Now()
	push := func(i int) error {
		frame := p.pool.frames[i%len(p.pool.frames)]
		req := int64(i)
		if err := call("wire.decode", req, func() error { return dec.Decode(frame, &batch) }); err != nil {
			return err
		}
		if err := call("wal.append", req, func() error { return log.Append(batch.Coords, batch.Weights) }); err != nil {
			return err
		}
		if err := call("core.pushbatch", req, func() error { return shards[i%len(shards)].PushBatch(batch.Coords, batch.Weights) }); err != nil {
			return err
		}
		st.keys += int64(batch.Rows())
		if time.Since(lastSync) >= walSyncEvery {
			lastSync = time.Now()
			return call("wal.sync", req, log.Sync)
		}
		return nil
	}
	var seq uint64
	var idx *core.IndexedSummary
	var lastPath string
	rotate := func() error {
		seq++
		root := rec.begin("rotation", int64(seq))
		defer rec.end(root)
		if err := call("wal.cut", int64(seq), func() error { return log.Cut(seq) }); err != nil {
			return err
		}
		sealed, err := segmentBytes(dir, seq)
		if err != nil {
			return err
		}
		st.walBytes += sealed
		var parts []*core.Summary
		for _, b := range shards {
			var snap *core.Summary
			err := call("core.snapshot", int64(seq), func() (err error) { snap, err = b.Snapshot(); return err })
			if errors.Is(err, core.ErrNoData) {
				continue
			}
			if err != nil {
				return err
			}
			parts = append(parts, snap)
		}
		sum := parts[0]
		if len(parts) > 1 {
			if err := call("core.merge", int64(seq), func() (err error) {
				sum, err = core.MergeSummaries(buildSize, 1+seq, parts...)
				return err
			}); err != nil {
				return err
			}
		}
		if err := call("core.index", int64(seq), func() (err error) { idx, err = sum.Index(); return err }); err != nil {
			return err
		}
		if err := call("core.persist", int64(seq), func() (err error) { lastPath, err = persist(dir, seq, sum); return err }); err != nil {
			return err
		}
		return call("wal.truncate", int64(seq), func() error { log.Truncate(seq); return nil })
	}
	for i := 0; i < p.frames; i++ {
		if err := push(i); err != nil {
			return layerTimes{}, st, err
		}
		if p.rotateEvery > 0 && (i+1)%p.rotateEvery == 0 && i+1 < p.frames {
			if err := rotate(); err != nil {
				return layerTimes{}, st, err
			}
		}
	}
	if err := rotate(); err != nil {
		return layerTimes{}, st, err
	}
	for i := 0; i < p.tail; i++ {
		if err := push(p.frames + i); err != nil {
			return layerTimes{}, st, err
		}
	}
	if err := log.Sync(); err != nil {
		return layerTimes{}, st, err
	}
	tailBytes, err := segmentBytes(dir, seq+1)
	if err != nil {
		return layerTimes{}, st, err
	}
	st.walBytes += tailBytes
	// Recovery: replay the WAL the last snapshot does not cover, then load
	// that snapshot.
	if err := call("wal.replay", 0, func() error {
		_, err := wal.Replay(dir, summary, seq, dec, func(*wire.Batch) error { return nil })
		return err
	}); err != nil {
		return layerTimes{}, st, err
	}
	if err := call("core.load", 0, func() error {
		f, err := os.Open(lastPath)
		if err != nil {
			return err
		}
		defer f.Close()
		sum, err := core.ReadSummary(f)
		if err != nil {
			return err
		}
		_, err = sum.Index()
		return err
	}); err != nil {
		return layerTimes{}, st, err
	}
	if err := r.replayQueries(rec, p, idx, &st); err != nil {
		return layerTimes{}, st, err
	}
	if err := r.replayBuild(call, p.ds); err != nil {
		return layerTimes{}, st, err
	}
	r.traceSpans = append(r.traceSpans, rec)
	return aggregate(rec.spans), st, nil
}

// replayQueries runs the plan's queries against the last rotation's index
// through the serving layers, behind a capacity-4096 answer cache.
func (r *run) replayQueries(rec *recorder, p replayPlan, idx *core.IndexedSummary, st *replayStats) error {
	be := backend.FromIndexedSummary(idx)
	bd, ok := be.Estimator.(backend.Bounder)
	if !ok {
		return errors.New("sample backend has no bounds")
	}
	cache := anscache.New(4096)
	axes := p.pool.ds.Axes
	n := min(p.queries, replayQueries)
	for i := 0; i < n; i++ {
		text := p.qs.texts[p.pick(i)]
		req := int64(i)
		root := rec.begin("query", req)
		id := rec.begin("anscache.get", req)
		_, hit := cache.Get(text)
		rec.end(id)
		if hit {
			st.hits++
		} else {
			id = rec.begin("structure.parse", req)
			box, err := structure.ParseRange(text)
			if err == nil {
				err = box.Check(axes)
			}
			rec.end(id)
			if err != nil {
				return fmt.Errorf("query %q: %w", text, err)
			}
			id = rec.begin("queryidx.estimate", req)
			est := idx.EstimateRange(box)
			rec.end(id)
			id = rec.begin("bounds.bound", req)
			bound := bd.EstimateBound(est, boundDelta)
			rec.end(id)
			// A stand-in for the server's rendered body, so the cache holds
			// values of a realistic size.
			body := strconv.AppendFloat(strconv.AppendFloat([]byte(text), est, 'g', -1, 64), bound, 'g', -1, 64)
			id = rec.begin("anscache.put", req)
			cache.Put(text, body)
			rec.end(id)
		}
		rec.end(root)
	}
	st.queries = int64(n)
	return nil
}

// replayBuild times the build-side layers once each on ds: the IPPS
// threshold, the kd-hierarchy over the fractional keys, the full closing
// pass, and the serial build of the same job.
func (r *run) replayBuild(call func(string, int64, func() error) error, ds *structure.Dataset) error {
	var tau float64
	if err := call("ipps.threshold", 0, func() (err error) { tau, err = ipps.Threshold(ds.Weights, buildSize); return err }); err != nil {
		return err
	}
	p := ipps.Probabilities(ds.Weights, tau)
	var fractional []int
	for i, pi := range p {
		if pi > 0 && pi < 1 {
			fractional = append(fractional, i)
		}
	}
	if err := call("kd.build", 0, func() error { _, err := kd.Build(ds, fractional, p, kd.Config{}); return err }); err != nil {
		return err
	}
	scratch := make([]float64, ds.Len())
	if err := call("engine.close", 0, func() error {
		_, _, err := engine.Close(ds, nil, scratch, buildSize, engine.CloseAware, xmath.NewRand(r.seed), nil)
		return err
	}); err != nil {
		return err
	}
	return call("core.build", 0, func() error { _, err := core.Build(ds, core.Config{Size: buildSize, Seed: r.seed}); return err })
}

// segmentBytes sums the sizes of the WAL segments in windows below seq:
// the ones a snapshot seq covers.
func segmentBytes(dir string, seq uint64) (int64, error) {
	segs, err := wal.List(dir, summary)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, sg := range segs {
		if sg.BaseSeq >= seq {
			continue
		}
		fi, err := os.Stat(sg.Path)
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// persist writes a snapshot the way the server does: a temp file written
// and fsynced, renamed into place, then the directory fsynced.
func persist(dir string, seq uint64, sum *core.Summary) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("%s-%08d.sas", summary, seq))
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return "", err
	}
	if _, err := sum.WriteTo(f); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", err
	}
	wal.SyncDir(dir, nil)
	return path, nil
}
