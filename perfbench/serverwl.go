package main

// serverwl.go holds the two workloads that drive sasserve over HTTP —
// ingest and query — and the phases they share: fresh-server set-up, the
// closed-loop frame producer, the final-epoch verification (correctness
// gates 2 and 3), and kill-and-restart recovery.

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"structaware/internal/core"
	"structaware/internal/loadgen"
	"structaware/internal/xmath"
)

const (
	// poolPairs is the number of workload.Network pairs behind the key
	// pool of the server workloads (about 2.07M distinct keys, 506 frames).
	poolPairs = 1 << 21
	// ingestFramesPerSecond sizes the ingest workload's key count from the
	// run length: 2^22 keys per second of --seconds. The count, not the
	// clock, ends the phase, so the WAL tail is the same on every run.
	ingestFramesPerSecond = 1024
	rotateFrames          = 2048 // ingest: a forced snapshot every 2^23 keys
	tailFrames            = 1024 // ingest: the untimed 2^22-key tail
	// smallTailFrames is the query workload's untimed tail: 2^20 keys the
	// restarts replay, so recover_s covers a WAL replay there too.
	smallTailFrames    = 256
	queryPrefillFrames = 1024 // query: 2^22 keys before the timed phase
	// refusedPause is how long a producer waits before resending a frame
	// the server refused with 429. Honoring Retry-After (1s) would leave
	// both CPUs idle and measure the hint instead of the server.
	refusedPause = 2 * time.Millisecond
	setups       = 5 // fresh server set-ups per run; setup_s is their median
	// restarts is how many times each server is killed and restarted on its
	// own directory; recover_s is the lower quartile over the run.
	restarts    = 1
	verifyBoxes = 512 // served estimates checked at the final epoch
	// queryOpenRate is the query workload's phase B rate, about a seventh
	// of its closed-loop rate at the seed commit: at half, a few seconds of
	// heavy hypervisor steal grew a backlog the loop never worked off.
	queryOpenRate = 5000.0
	// burstTime is the closed-loop query burst a traced ingest run makes
	// at its final epoch, for the query side of the per-layer metrics.
	burstTime = 4 * time.Second
	// zipfSkew is the range popularity of the query workload.
	zipfSkew = 1.0
)

// parameters records each workload's fixed settings in the run report.
var parameters = map[string]map[string]any{
	"ingest": {
		"server_flags": "-live net=bittrie:20,bittrie:20 -live-size 4096 -snapshot-dir <fresh>",
		"keys":         "seconds x 2^22", "frame_keys": frameKeys, "connections": "nproc, closed loop",
		"forced_snapshot_every_keys": rotateFrames * frameKeys, "tail_keys": tailFrames * frameKeys,
		"refused_pause_ms": refusedPause.Seconds() * 1000, "pool_pairs": poolPairs,
		"burst_s": burstTime.Seconds(), "setups": setups, "restarts_per_server": restarts,
	},
	"query": {
		"server_flags": "-live net=bittrie:20,bittrie:20 -live-size 4096 -snapshot-dir <fresh>",
		"prefill_keys": queryPrefillFrames * frameKeys, "query_pool": queryPool, "box_max_frac": boxMaxFrac,
		"zipf_skew": zipfSkew, "phase_a": "closed loop, nproc connections, 2/3 of seconds",
		"phase_b": "open loop, nproc connections, 1/3 of seconds", "phase_b_rate_per_s": queryOpenRate,
		"tail_keys": smallTailFrames * frameKeys, "setups": setups, "restarts_per_server": restarts,
	},
	"build": {
		"pairs": buildPairs, "size": buildSize, "workers": "nproc", "setups": setups,
	},
}

// nconns is the load generator's connection count: never more requests in
// flight than the machine has CPUs.
func nconns() int { return runtime.NumCPU() }

// serverPool generates the server workloads' key pool.
func (r *run) serverPool() (*keyPool, error) {
	ds, err := networkKeys(poolPairs, subSeed(r.seed, 1))
	if err != nil {
		return nil, err
	}
	return newKeyPool(ds)
}

// start starts a server on dir and records it, so stopAll can end it.
func (r *run) start(dir string, extra ...string) (*serverProc, time.Duration, error) {
	s, d, err := startServer(r.bin, dir, r.log, extra...)
	if err == nil {
		r.servers = append(r.servers, s)
	}
	return s, d, err
}

// stopAll kills every server the run started that is still running, and
// waits for each.
func (r *run) stopAll() {
	for _, s := range r.servers {
		s.kill()
	}
	r.servers = nil
}

// freshServer starts a server on a new snapshot directory and runs
// prepare, when it is not nil, on it. It returns the time from exec to the
// end of prepare: one set-up.
func (r *run) freshServer(prepare func(s *serverProc) error) (*serverProc, string, time.Duration, error) {
	r.dirs++
	dir := filepath.Join(r.work, fmt.Sprintf("snap%d", r.dirs))
	t0 := time.Now()
	s, _, err := r.start(dir)
	if err != nil {
		return nil, "", 0, err
	}
	if prepare != nil {
		if err := prepare(s); err != nil {
			return nil, "", 0, err
		}
	}
	return s, dir, time.Since(t0), nil
}

// retire kills a server the run is done with and removes its directory.
func retire(s *serverProc, dir string) error {
	s.kill()
	return os.RemoveAll(dir)
}

// snapEvent is one forced snapshot seen by the producer.
type snapEvent struct {
	sent, recv time.Time
}

// ingestRun is the outcome of pushing a frame sequence.
type ingestRun struct {
	acks    []time.Duration // per delivered batch, in ack order: first send → 200
	ackAt   []time.Time     // per delivered batch, in ack order: when its 200 arrived
	refused int64           // 429 answers, each followed by a resend
	failed  int64           // batches answered with another status
	count   []int64         // deliveries per pool frame
	snaps   []snapEvent
	keys    int64
}

// produce pushes frames first..first+n-1 of the cycled pool in a closed
// loop over nconns connections, adding each acked frame's keys to acked.
// After every rotate-th frame (0 = never) the producer that sent it forces
// a snapshot.
func (r *run) produce(s *serverProc, pool *keyPool, first, n, rotate int, acked *atomic.Int64) (*ingestRun, error) {
	w := nconns()
	res := &ingestRun{count: make([]int64, len(pool.frames))}
	type part struct {
		acks  []time.Duration
		ackAt []time.Time
		snaps []snapEvent
		err   error
	}
	parts := make([]part, w)
	var next, refused, failed atomic.Int64
	counts := make([]atomic.Int64, len(pool.frames))
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.conn(s.base)
			defer c.close()
			p := &parts[k]
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				f := (first + i) % len(pool.frames)
				t0 := time.Now()
				ok, err := pushFrame(c, pool.frames[f], &refused)
				if err != nil {
					p.err = err
					return
				}
				if !ok {
					failed.Add(1)
				} else {
					now := time.Now()
					p.acks = append(p.acks, now.Sub(t0))
					p.ackAt = append(p.ackAt, now)
					counts[f].Add(1)
					acked.Add(frameKeys)
				}
				if rotate > 0 && (i+1)%rotate == 0 && i+1 < n {
					sent := time.Now()
					if _, err := c.snapshot(); err != nil {
						p.err = err
						return
					}
					p.snaps = append(p.snaps, snapEvent{sent, time.Now()})
				}
			}
		}()
	}
	wg.Wait()
	type ack struct {
		at  time.Time
		lat time.Duration
	}
	var all []ack
	for _, p := range parts {
		if p.err != nil {
			return nil, p.err
		}
		for i := range p.acks {
			all = append(all, ack{p.ackAt[i], p.acks[i]})
		}
		res.snaps = append(res.snaps, p.snaps...)
	}
	slices.SortFunc(all, func(a, b ack) int { return a.at.Compare(b.at) })
	for _, a := range all {
		res.acks = append(res.acks, a.lat)
		res.ackAt = append(res.ackAt, a.at)
	}
	for f := range counts {
		res.count[f] = counts[f].Load()
	}
	res.refused, res.failed = refused.Load(), failed.Load()
	res.keys = int64(len(res.acks)) * frameKeys
	return res, nil
}

// pushFrame POSTs a frame until the server takes it. A 429 is
// back-pressure, not a failure: it is counted in refused and answered by a
// resend after refusedPause. ok reports a 200; any other status is a
// failed batch.
func pushFrame(c *conn, frame []byte, refused *atomic.Int64) (ok bool, err error) {
	for {
		st, err := c.push(frame)
		if err != nil {
			return false, err
		}
		if st != http.StatusTooManyRequests {
			return st == http.StatusOK, nil
		}
		refused.Add(1)
		time.Sleep(refusedPause)
	}
}

// forceSnapshot forces a rotation and records it as the end of the
// producer's run: every batch acked before it is in its epoch.
func (res *ingestRun) forceSnapshot(c *conn) (snapResp, error) {
	sent := time.Now()
	snap, err := c.snapshot()
	res.snaps = append(res.snaps, snapEvent{sent, time.Now()})
	return snap, err
}

// publishLags returns, per delivered batch, the time from its ack to the
// response of the first forced snapshot requested after it.
func (res *ingestRun) publishLags() []float64 {
	snaps := slices.Clone(res.snaps)
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].sent.Before(snaps[j].sent) })
	var lags []float64
	for _, a := range res.ackAt {
		k := sort.Search(len(snaps), func(i int) bool { return !snaps[i].sent.Before(a) })
		if k < len(snaps) {
			lags = append(lags, snaps[k].recv.Sub(a).Seconds()*1000)
		}
	}
	return lags
}

// ingestFigures are the write-path metrics of one producer run.
type ingestFigures struct {
	rate, cpuPerKey        float64
	ackP50, ackP90, ackP99 float64
	lagP50, lagP90, lagP99 float64
	refused                float64
}

// figures summarizes a producer run whose windows ws measured the rate
// and the server CPU per key.
func (res *ingestRun) figures(ws *windowSampler) ingestFigures {
	rate, cpu := ws.finish(time.Nanosecond)
	acks := inUnit(res.acks, time.Millisecond)
	lags := res.publishLags()
	return ingestFigures{
		rate: rate, cpuPerKey: cpu,
		ackP50: steadyQuantile(acks, 0.50), ackP90: steadyQuantile(acks, 0.90), ackP99: steadyQuantile(acks, 0.99),
		lagP50: lagQuantile(lags, 0.50), lagP90: lagQuantile(lags, 0.90), lagP99: lagQuantile(lags, 0.99),
		refused: float64(res.refused) / float64(len(res.acks)),
	}
}

// setIngestMetrics records the median, field by field, of the figures of
// producer runs on one or more servers: the write path's per-layer figures
// always, and its end-to-end ones when headline is set.
func (r *run) setIngestMetrics(figs []ingestFigures, headline bool) {
	med := func(f func(ingestFigures) float64) float64 {
		xs := make([]float64, len(figs))
		for i, fg := range figs {
			xs[i] = f(fg)
		}
		return median(xs)
	}
	r.serverCPUPerKey = med(func(f ingestFigures) float64 { return f.cpuPerKey })
	if headline {
		r.set("ops_per_s", med(func(f ingestFigures) float64 { return f.rate }))
		r.set("cpu_ns_per_op", r.serverCPUPerKey)
	}
	r.set("ack_p50_ms", med(func(f ingestFigures) float64 { return f.ackP50 }))
	r.set("ack_p90_ms", med(func(f ingestFigures) float64 { return f.ackP90 }))
	r.set("ack_p99_ms", med(func(f ingestFigures) float64 { return f.ackP99 }))
	r.set("publish_lag_p50_ms", med(func(f ingestFigures) float64 { return f.lagP50 }))
	r.set("publish_lag_p90_ms", med(func(f ingestFigures) float64 { return f.lagP90 }))
	r.set("publish_lag_p99_ms", med(func(f ingestFigures) float64 { return f.lagP99 }))
	r.set("sasserve.refused_per_batch", med(func(f ingestFigures) float64 { return f.refused }))
}

// verify forces a final snapshot and checks correctness gates 2 and 3 on
// it: served estimates of the final epoch must equal, bit for bit, the
// library's estimates on the snapshot file the response names, and the
// served 95% bounds must cover the exact answer over the delivered frames
// for at least 90% of the boxes.
func (r *run) verify(c *conn, pool *keyPool, count []int64, qs queries) error {
	snap, err := c.snapshot()
	if err != nil {
		return err
	}
	meta, err := c.meta()
	if err != nil {
		return err
	}
	f, err := os.Open(snap.Path)
	if err != nil {
		return err
	}
	sum, err := core.ReadSummary(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("read %s: %w", snap.Path, err)
	}
	idx, err := sum.Index()
	if err != nil {
		return err
	}
	orc := newOracle(pool, count)
	equal, covered, compared := 0, 0, 0
	for i := 0; i < verifyBoxes; i++ {
		j := i * (queryPool / verifyBoxes)
		st, body, err := c.do(http.MethodGet, qs.paths[j], "", nil)
		if err != nil {
			return err
		}
		var er estResp
		if st != http.StatusOK || json.Unmarshal(body, &er) != nil || len(er.Estimates) != 1 || len(er.Bounds) != 1 {
			r.gate(false, "verification estimate %d: status %d body %q", j, st, body)
			continue
		}
		if er.Epoch != meta.Epoch {
			continue
		}
		compared++
		served := er.Estimates[0]
		if math.Float64bits(served) == math.Float64bits(idx.EstimateRange(qs.boxes[j])) {
			equal++
		}
		if math.Abs(served-orc.rangeSum(qs.boxes[j])) <= er.Bounds[0] {
			covered++
		}
	}
	r.attempted += verifyBoxes
	r.gate(compared >= 256 && equal == compared,
		"served estimates equal the library's on %s: %d of %d at epoch %d", filepath.Base(snap.Path), equal, compared, meta.Epoch)
	r.gate(compared > 0 && float64(covered) >= 0.9*float64(compared),
		"served 95%% bounds cover the exact answer on %d of %d boxes", covered, compared)
	return nil
}

// pushTail pushes n untimed frames from frame first on, for the restarts
// to replay.
func (r *run) pushTail(s *serverProc, pool *keyPool, first, n int) (*ingestRun, error) {
	tail, err := r.produce(s, pool, first, n, 0, new(atomic.Int64))
	if err != nil {
		return nil, err
	}
	r.attempted += int64(n)
	r.failed += tail.failed
	return tail, nil
}

// restart SIGKILLs the server and restarts it on the same directory n
// times. It returns the server then running and each restart's time from
// exec to ready.
func (r *run) restart(s *serverProc, dir string, n int) (*serverProc, []float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		s.kill()
		var d time.Duration
		var err error
		if s, d, err = r.start(dir); err != nil {
			return nil, nil, err
		}
		times = append(times, d.Seconds())
	}
	return s, times, nil
}

// setRecovered records recover_s, the lower quartile of the run's
// restarts.
func (r *run) setRecovered(times []float64) {
	r.set("recover_s", slowQuartile(times))
	r.note("restarts, exec to ready: " + fmtList(times, "%.3f") + " s")
}

// checkRecovered is correctness gate 1: after the restarts, a forced
// snapshot's total estimate equals the weight of every frame the server
// acked, count before the tail and the tail after, and the snapshot holds
// exactly the tail's keys as pushed since the last one.
func (r *run) checkRecovered(s *serverProc, pool *keyPool, count []int64, tail *ingestRun) error {
	c := r.conn(s.base)
	defer c.close()
	snap, err := c.snapshot()
	if err != nil {
		return err
	}
	weight := 0.0
	for f, w := range pool.frameWeight {
		weight += w * float64(count[f]+tail.count[f])
	}
	rel := math.Abs(snap.TotalEstimate-weight) / weight
	r.gate(rel <= 1e-6, "recovered total_estimate %.9g vs acked weight %.9g (relative error %.2g)", snap.TotalEstimate, weight, rel)
	r.gate(snap.Pushed == tail.keys, "recovered pushed %d equals the tail's %d keys", snap.Pushed, tail.keys)
	return nil
}

// queryBurst runs a closed-loop burst of uniform queries over nconns
// connections for burstTime and records the server CPU per query, the
// cache's hit ratio and the latency.
func (r *run) queryBurst(s *serverProc, qs queries) error {
	conns := make([]*conn, nconns())
	for i := range conns {
		conns[i] = r.conn(s.base)
		defer conns[i].close()
	}
	meta0, err := conns[0].meta()
	if err != nil {
		return err
	}
	pick := uniformPicks(subSeed(r.seed, 4))
	lat, failed, _, cpu := closedQueries(s, conns, qs, pick, 0, burstTime)
	meta1, err := conns[0].meta()
	if err != nil {
		return err
	}
	r.attempted += int64(len(lat))
	r.failed += int64(failed)
	r.burstQueries = len(lat)
	r.serverCPUPerQuery = cpu
	r.setHitRatio(meta0, meta1)
	us := inUnit(lat, time.Microsecond)
	r.set("query_p50_us", steadyQuantile(us, 0.50))
	r.set("query_p90_us", steadyQuantile(us, 0.90))
	r.set("query_p99_us", steadyQuantile(us, 0.99))
	return nil
}

// queryWindow is the window of the closed-loop query phases. The client and
// the server share the CPUs, and their throughput switches between modes
// within a fraction of a second; short windows let the upper quartile
// settle on the faster one.
const queryWindow = 250 * time.Millisecond

// closedQueries runs a closed loop of estimate requests, request i for
// pool index pick(offset+i), one connection per worker, for dur. It
// returns the latencies, the failures, and the medians over windows of the
// request rate and of the server CPU per request, in µs.
func closedQueries(s *serverProc, conns []*conn, qs queries, pick func(int) int, offset int, dur time.Duration) ([]time.Duration, int, float64, float64) {
	var done atomic.Int64
	ws := sampleWindows(queryWindow, func() (time.Duration, error) { return procCPU(s.pid()) }, &done)
	lat, failed := closedLoop(0, dur, len(conns), func(w, i int) bool {
		st, _, err := conns[w].do(http.MethodGet, qs.paths[pick(offset+i)], "", nil)
		done.Add(1)
		return err == nil && st == http.StatusOK
	})
	rate, cpu := ws.finish(time.Microsecond)
	return lat, failed, rate, cpu
}

// setHitRatio records the answer cache's hit ratio between two readings of
// one epoch's counters.
func (r *run) setHitRatio(m0, m1 metaResp) {
	hits, misses := m1.CacheHits-m0.CacheHits, m1.CacheMisses-m0.CacheMisses
	r.set("anscache.hit_ratio", float64(hits)/float64(max(1, hits+misses)))
}

// uniformPicks maps a request number to a uniformly drawn pool index.
func uniformPicks(seed uint64) func(i int) int {
	return func(i int) int { return int(xmath.Hash64(seed^uint64(i)) % queryPool) }
}

// zipfPicks maps a request number to a Zipf(zipfSkew)-popular pool index.
func zipfPicks(seed uint64) func(i int) int {
	z := loadgen.NewZipf(queryPool, zipfSkew)
	return func(i int) int { return z.Pick(float64(xmath.Hash64(seed^uint64(i))>>11) / (1 << 53)) }
}

// ingest is the bulk-load workload: closed-loop frame pushes with
// count-driven rotation, then a kill and restart on the same directory.
func (r *run) ingest() error {
	pool, err := r.serverPool()
	if err != nil {
		return err
	}
	qs := newQueries(subSeed(r.seed, 2))
	// The timed phase is split evenly over setups fresh servers, and each
	// figure is the median over the servers. A server's slice continues
	// the pool where the last one stopped, rotates every rotateFrames
	// frames, and ends with a forced snapshot. Then the server takes the
	// untimed tail and is killed and restarted, so the restarts, too, are
	// spread over the whole run.
	per := int(r.seconds/time.Second) * ingestFramesPerSecond / setups
	var (
		figs                     []ingestFigures
		setupTimes, restartTimes []float64
		rss, wbytes              []float64
		batches                  int64
		snaps                    int
		clientCPU                time.Duration
	)
	host0, err := hostCPU()
	if err != nil {
		return err
	}
	serve := func(i int) error {
		s, dir, d, err := r.freshServer(nil)
		if err != nil {
			return err
		}
		setupTimes = append(setupTimes, d.Seconds())
		w0, err := procWchar(s.pid())
		if err != nil {
			return err
		}
		var u0, u1 syscallUsage
		u0.read()
		var acked atomic.Int64
		ws := sampleWindows(0, func() (time.Duration, error) { return procCPU(s.pid()) }, &acked)
		res, err := r.produce(s, pool, i*per, per, rotateFrames, &acked)
		if err != nil {
			return err
		}
		ctl := r.conn(s.base)
		defer ctl.close()
		if _, err := res.forceSnapshot(ctl); err != nil {
			return err
		}
		fig := res.figures(ws)
		u1.read()
		w1, err := procWchar(s.pid())
		if err != nil {
			return err
		}
		hwm, err := procPeakRSS(s.pid())
		if err != nil {
			return err
		}
		figs = append(figs, fig)
		rss = append(rss, hwm)
		wbytes = append(wbytes, float64(w1-w0)/float64(res.keys))
		clientCPU += u1.cpu() - u0.cpu()
		batches, snaps = batches+int64(len(res.acks)), snaps+len(res.snaps)
		r.attempted += int64(per)
		r.failed += res.failed
		r.note(fmt.Sprintf("slice on server %d: %.2f Mkeys/s, %.1f ns server CPU per key, ack p50 %.3f ms",
			i+1, fig.rate/1e6, fig.cpuPerKey, fig.ackP50))
		if i == setups-1 {
			if err := r.verify(ctl, pool, res.count, qs); err != nil {
				return err
			}
			if r.trace {
				if err := r.queryBurst(s, qs); err != nil {
					return err
				}
			}
		}
		tail, err := r.pushTail(s, pool, (i+1)*per, tailFrames)
		if err != nil {
			return err
		}
		s, times, err := r.restart(s, dir, restarts)
		if err != nil {
			return err
		}
		restartTimes = append(restartTimes, times...)
		if err := r.checkRecovered(s, pool, res.count, tail); err != nil {
			return err
		}
		return retire(s, dir)
	}
	for i := 0; i < setups; i++ {
		if err := serve(i); err != nil {
			return err
		}
	}
	host1, err := hostCPU()
	if err != nil {
		return err
	}
	r.set("setup_s", median(setupTimes))
	r.setIngestMetrics(figs, true)
	r.setRecovered(restartTimes)
	r.set("peak_rss_mb", median(rss))
	r.set("host.steal_pct", stealPct(host0, host1))
	r.set("sasserve.write_bytes_per_key", median(wbytes))
	r.set("sasserve.epochs", float64(snaps))
	r.set("loadgen.cpu_us_per_req", float64(clientCPU.Nanoseconds())/1000/float64(batches+int64(snaps)))
	// A closed loop has no schedule to fall behind.
	r.set("loadgen.late_ms_p99", 0)
	// The replay covers one rotation period of the timed phase, then the
	// tail, then the burst's queries.
	r.plan = replayPlan{pool: pool, frames: min(per, rotateFrames), rotateEvery: rotateFrames, tail: tailFrames,
		qs: qs, pick: uniformPicks(subSeed(r.seed, 4)), queries: r.burstQueries, ds: pool.ds}
	return nil
}

// query is the read-path workload: a prefilled, snapshotted server
// queried in a closed loop (phase A), then an open loop (phase B).
func (r *run) query() error {
	pool, err := r.serverPool()
	if err != nil {
		return err
	}
	qs := newQueries(subSeed(r.seed, 2))
	// Every set-up's prefill is a measured bulk load, for the write path's
	// per-layer metrics.
	var prefill *ingestRun
	var figs []ingestFigures
	prepare := func(s *serverProc) error {
		var acked atomic.Int64
		ws := sampleWindows(0, func() (time.Duration, error) { return procCPU(s.pid()) }, &acked)
		var err error
		if prefill, err = r.produce(s, pool, 0, queryPrefillFrames, 0, &acked); err != nil {
			return err
		}
		c := r.conn(s.base)
		defer c.close()
		if _, err := prefill.forceSnapshot(c); err != nil {
			return err
		}
		figs = append(figs, prefill.figures(ws))
		r.attempted += queryPrefillFrames
		r.failed += prefill.failed
		return nil
	}
	// Phase A, the closed loop, runs a slice on each of setups fresh
	// servers, and each figure is the median over the servers. Phase B
	// and the verification run on the last one. Every server then takes
	// the untimed tail and is killed and restarted.
	pick := zipfPicks(subSeed(r.seed, 3))
	var (
		lat                      []time.Duration
		failed                   int
		setupTimes, restartTimes []float64
		rates, cpus, rss         []float64
		clientCPU                time.Duration
	)
	host0, err := hostCPU()
	if err != nil {
		return err
	}
	serve := func(i int) error {
		s, dir, d, err := r.freshServer(prepare)
		if err != nil {
			return err
		}
		setupTimes = append(setupTimes, d.Seconds())
		conns := make([]*conn, nconns())
		for k := range conns {
			conns[k] = r.conn(s.base)
			defer conns[k].close()
		}
		meta0, err := conns[0].meta()
		if err != nil {
			return err
		}
		w0, err := procWchar(s.pid())
		if err != nil {
			return err
		}
		var u0, u1 syscallUsage
		u0.read()
		l, f, rate, cpu := closedQueries(s, conns, qs, pick, len(lat), r.seconds*2/3/setups)
		u1.read()
		clientCPU += u1.cpu() - u0.cpu()
		hwm, err := procPeakRSS(s.pid())
		if err != nil {
			return err
		}
		rss = append(rss, hwm)
		lat, failed = append(lat, l...), failed+f
		rates, cpus = append(rates, rate), append(cpus, cpu)
		r.note(fmt.Sprintf("phase A on server %d: %.0f req/s, %.2f us server CPU per query", i+1, rate, cpu))
		if i == setups-1 {
			// Phase B: open loop at a fixed rate, timed from each due
			// time. Its request numbers continue phase A's so both draw
			// from one sequence.
			offset := len(lat)
			recs := openLoop(wallClock{}, queryOpenRate, r.seconds/3, len(conns), func(w, i int) bool {
				st, _, err := conns[w].do(http.MethodGet, qs.paths[pick(offset+i)], "", nil)
				return err == nil && st == http.StatusOK
			})
			meta1, err := conns[0].meta()
			if err != nil {
				return err
			}
			r.recordOpenLoop(recs)
			r.setHitRatio(meta0, meta1)
			r.set("sasserve.write_bytes_per_key", float64(w0)/float64(prefill.keys))
			if err := r.verify(conns[0], pool, prefill.count, qs); err != nil {
				return err
			}
		}
		if _, err := r.pushTail(s, pool, queryPrefillFrames, smallTailFrames); err != nil {
			return err
		}
		s, times, err := r.restart(s, dir, restarts)
		if err != nil {
			return err
		}
		restartTimes = append(restartTimes, times...)
		return retire(s, dir)
	}
	for i := 0; i < setups; i++ {
		if err := serve(i); err != nil {
			return err
		}
	}
	host1, err := hostCPU()
	if err != nil {
		return err
	}
	r.set("setup_s", median(setupTimes))
	r.setIngestMetrics(figs, false)
	r.setRecovered(restartTimes)
	r.attempted += int64(len(lat))
	r.failed += int64(failed)
	cpu := median(cpus)
	r.set("ops_per_s", median(rates))
	r.set("cpu_ns_per_op", cpu*1000)
	r.set("loadgen.cpu_us_per_req", float64(clientCPU.Nanoseconds())/1000/float64(len(lat)))
	r.serverCPUPerQuery = cpu
	r.set("peak_rss_mb", median(rss))
	r.set("host.steal_pct", stealPct(host0, host1))
	r.set("sasserve.epochs", 1)
	r.plan = replayPlan{pool: pool, frames: queryPrefillFrames, tail: smallTailFrames,
		qs: qs, pick: pick, queries: len(lat), ds: pool.ds}
	return nil
}

// recordOpenLoop records an open-loop query stream's latency from due
// time, its failures, and how late the generator ran.
func (r *run) recordOpenLoop(recs []opRecord) {
	var lat, late []float64
	for _, rec := range recs {
		r.attempted++
		if !rec.ok {
			r.failed++
			continue
		}
		lat = append(lat, float64(rec.latency())/float64(time.Microsecond))
		late = append(late, float64(rec.late())/float64(time.Millisecond))
	}
	r.set("query_p50_us", steadyQuantile(lat, 0.50))
	r.set("query_p90_us", steadyQuantile(lat, 0.90))
	r.set("query_p99_us", steadyQuantile(lat, 0.99))
	r.set("loadgen.late_ms_p99", quantile(late, 0.99))
}
