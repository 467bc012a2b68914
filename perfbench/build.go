package main

// build.go is the library workload: structaware.SampleParallel, the batch
// build behind sassample, run in-process with no server, and correctness
// gate 4 on its output.

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"

	"structaware"
)

const (
	buildPairs = 1 << 20 // workload.Network pairs of the build dataset
	buildSize  = 4096    // sample size of every build
	// queriesPerWorker is how many in-process estimates the build workload
	// times at each of its closed-loop workers.
	queriesPerWorker = 100000
	loadsPerBuild    = 25 // summary loads timed after each build, for recover_s
)

// syscallUsage is this process's resource usage.
type syscallUsage struct{ ru syscall.Rusage }

func (u *syscallUsage) read() { syscall.Getrusage(syscall.RUSAGE_SELF, &u.ru) }

// cpu is user plus system time.
func (u *syscallUsage) cpu() time.Duration {
	return time.Duration(u.ru.Utime.Nano() + u.ru.Stime.Nano())
}

// builds is the outcome of repeated SampleParallel builds of one dataset.
type builds struct {
	lat  []time.Duration // wall time of each build
	cpu  []time.Duration // process CPU of each build
	sums []*structaware.Summary
}

// rate is the upper quartile over builds of keys built per second.
func (b builds) rate(keys int) float64 {
	rates := make([]float64, len(b.lat))
	for i, d := range b.lat {
		rates[i] = float64(keys) / d.Seconds()
	}
	return fastQuartile(rates)
}

// cpuPerKey is the lower quartile over builds of process CPU per key, in
// ns.
func (b builds) cpuPerKey(keys int) float64 {
	ns := make([]float64, len(b.cpu))
	for i, d := range b.cpu {
		ns[i] = float64(d.Nanoseconds()) / float64(keys)
	}
	return slowQuartile(ns)
}

// buildRepeatedly builds ds with SampleParallel until at least minTime has
// passed and n builds are done, calling after (when not nil) with each
// summary, outside the build's timing. The heap is collected before each
// build and each call of after. In a traced run each build is a
// client span.
func (r *run) buildRepeatedly(ds *structaware.Dataset, n int, minTime time.Duration, after func(*structaware.Summary) error) (builds, error) {
	var b builds
	var rec *recorder
	if r.client != nil {
		rec = r.client.recorder()
	}
	start := time.Now()
	for len(b.lat) < n || time.Since(start) < minTime {
		// Each build starts on a collected heap, so it does not pay for
		// the garbage of the one before it.
		runtime.GC()
		var u0, u1 syscallUsage
		u0.read()
		t0 := time.Now()
		id := -1
		if rec != nil {
			id = rec.begin("library.sample_parallel", int64(len(b.lat)))
		}
		sum, err := structaware.SampleParallel(ds, structaware.Config{Size: buildSize, Seed: r.seed}, runtime.NumCPU())
		if rec != nil {
			rec.end(id)
		}
		if err != nil {
			return b, err
		}
		b.lat = append(b.lat, time.Since(t0))
		u1.read()
		b.cpu = append(b.cpu, u1.cpu()-u0.cpu())
		b.sums = append(b.sums, sum)
		if after != nil {
			runtime.GC()
			if err := after(sum); err != nil {
				return b, err
			}
		}
	}
	return b, nil
}

// build is the batch-build workload.
func (r *run) build() error {
	var ds *structaware.Dataset
	var times []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		var err error
		if ds, err = networkKeys(buildPairs, subSeed(r.seed, 5)); err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(times))

	host0, err := hostCPU()
	if err != nil {
		return err
	}
	// Recovering a summary means reading its serialization back and
	// indexing it: about a millisecond, so loadsPerBuild loads follow every
	// build, spreading the samples over the phase, and recover_s is their
	// least-disturbed quartile.
	var load []float64
	b, err := r.buildRepeatedly(ds, 2, r.seconds, func(sum *structaware.Summary) error {
		data, err := sum.MarshalBinary()
		if err != nil {
			return err
		}
		for range loadsPerBuild {
			t0 := time.Now()
			back, err := structaware.ReadSummary(bytes.NewReader(data))
			if err != nil {
				return err
			}
			if _, err := back.Index(); err != nil {
				return err
			}
			load = append(load, time.Since(t0).Seconds())
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("recover_s", slowQuartile(load))
	host1, err := hostCPU()
	if err != nil {
		return err
	}
	lat, sums := b.lat, b.sums
	r.attempted += int64(len(lat))
	r.serverCPUPerKey = b.cpuPerKey(ds.Len())
	r.set("ops_per_s", b.rate(ds.Len()))
	r.set("cpu_ns_per_op", r.serverCPUPerKey)
	// No server: nothing is refused, written or late; each build is an
	// epoch a server would publish.
	r.set("sasserve.refused_per_batch", 0)
	r.set("sasserve.write_bytes_per_key", 0)
	r.set("sasserve.epochs", float64(len(lat)))
	r.set("loadgen.late_ms_p99", 0)
	r.set("host.steal_pct", stealPct(host0, host1))

	// Gate 4: exact size, exact HT total, byte-identical rebuilds.
	total := ds.TotalWeight()
	bad := 0
	for _, s := range sums {
		if s.Size() != buildSize || math.Abs(s.EstimateTotal()-total) > 1e-9*total {
			bad++
		}
	}
	r.gate(bad == 0, "%d builds hold exactly %d keys with HT total equal to the dataset total %.9g (%d failed)", len(sums), buildSize, total, bad)
	var first, last bytes.Buffer
	if _, err := sums[0].WriteTo(&first); err != nil {
		return err
	}
	if _, err := sums[len(sums)-1].WriteTo(&last); err != nil {
		return err
	}
	r.gate(bytes.Equal(first.Bytes(), last.Bytes()), "two builds with seed %d serialize byte-identically (%d bytes)", r.seed, first.Len())

	if r.trace {
		// The write- and query-path figures of the per-layer list, measured
		// on the library alone.
		if err := r.streamRate(ds); err != nil {
			return err
		}
		if err := r.libraryQueries(sums[0]); err != nil {
			return err
		}
		pool, err := newKeyPool(ds)
		if err != nil {
			return err
		}
		r.plan = replayPlan{pool: pool, frames: len(pool.frames), qs: newQueries(subSeed(r.seed, 2)),
			pick: uniformPicks(subSeed(r.seed, 4)), queries: queriesPerWorker * nconns(), ds: ds}
	}
	rss, err := procPeakRSS(os.Getpid())
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	return nil
}

// streamRate measures the write path of the library on the build
// workload: its streaming Builder (the path behind sassample -in -) fed
// the dataset in frame-sized batches, setups passes. A PushBatch call is
// the library's ack, and a batch is published when Finalize and Index of
// its pass return, so its publish lag runs from its ack to then.
func (r *run) streamRate(ds *structaware.Dataset) error {
	var acks []time.Duration
	var lags []float64
	for i := 0; i < setups; i++ {
		var ackAt []time.Time
		b, err := structaware.NewBuilder(ds.Axes, structaware.Config{Size: buildSize, Seed: r.seed})
		if err != nil {
			return err
		}
		cols := make([][]uint64, ds.Dims())
		for lo := 0; lo < ds.Len(); lo += frameKeys {
			hi := min(lo+frameKeys, ds.Len())
			for d := range cols {
				cols[d] = ds.Coords[d][lo:hi]
			}
			t0 := time.Now()
			if err := b.PushBatch(cols, ds.Weights[lo:hi]); err != nil {
				return err
			}
			acks = append(acks, time.Since(t0))
			ackAt = append(ackAt, time.Now())
		}
		sum, err := b.Finalize()
		if err != nil {
			return err
		}
		if _, err := sum.Index(); err != nil {
			return err
		}
		published := time.Now()
		for _, a := range ackAt {
			lags = append(lags, float64(published.Sub(a))/float64(time.Millisecond))
		}
	}
	r.set("publish_lag_p50_ms", lagQuantile(lags, 0.50))
	r.set("publish_lag_p90_ms", lagQuantile(lags, 0.90))
	r.set("publish_lag_p99_ms", lagQuantile(lags, 0.99))
	ms := inUnit(acks, time.Millisecond)
	r.set("ack_p50_ms", steadyQuantile(ms, 0.50))
	r.set("ack_p90_ms", steadyQuantile(ms, 0.90))
	r.set("ack_p99_ms", steadyQuantile(ms, 0.99))
	return nil
}

// libraryQueries measures the query-path figures of the build workload:
// IndexedSummary.EstimateRange in-process, on nproc closed-loop workers
// over the uniform query pool.
func (r *run) libraryQueries(sum *structaware.Summary) error {
	idx, err := sum.Index()
	if err != nil {
		return err
	}
	qs := newQueries(subSeed(r.seed, 2))
	pick := uniformPicks(subSeed(r.seed, 4))
	var u0, u1 syscallUsage
	u0.read()
	sink := make([]float64, nconns())
	lat, _ := closedLoop(queriesPerWorker*nconns(), 0, nconns(), func(w, i int) bool {
		sink[w] += idx.EstimateRange(qs.boxes[pick(i)])
		return true
	})
	u1.read()
	if len(lat) == 0 {
		return fmt.Errorf("no library query ran")
	}
	us := inUnit(lat, time.Microsecond)
	r.attempted += int64(len(lat))
	r.serverCPUPerQuery = float64((u1.cpu() - u0.cpu()).Nanoseconds()) / 1000 / float64(len(lat))
	// The generator and the estimate share one call in-process.
	r.set("loadgen.cpu_us_per_req", r.serverCPUPerQuery)
	r.set("query_p50_us", steadyQuantile(us, 0.50))
	r.set("query_p90_us", steadyQuantile(us, 0.90))
	r.set("query_p99_us", steadyQuantile(us, 0.99))
	return nil
}
