// Benchmarks: one per figure of the paper's evaluation (regenerating the
// plotted series at reduced scale; use cmd/sasbench for full-scale runs) and
// micro-benchmarks for the core primitives and per-method build/query costs.
package structaware_test

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"testing"

	"structaware"
	"structaware/internal/aware"
	"structaware/internal/expt"
	"structaware/internal/ingest"
	"structaware/internal/ipps"
	"structaware/internal/kd"
	"structaware/internal/paggr"
	"structaware/internal/structure"
	"structaware/internal/twopass"
	"structaware/internal/varopt"
	"structaware/internal/wavelet"
	"structaware/internal/workload"
	"structaware/internal/xmath"
)

// benchOpts is the reduced-scale profile used by the figure benchmarks.
func benchOpts() expt.Options {
	return expt.Options{Scale: 0.02, Queries: 10, Seed: 1, Out: io.Discard}
}

func runFigure(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := expt.Runners[name](benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- One benchmark per figure (paper §6) ----------------------------------

func Benchmark_Fig2a_NetworkErrorVsSize(b *testing.B)     { runFigure(b, "fig2a") }
func Benchmark_Fig2b_NetworkErrorVsWeight(b *testing.B)   { runFigure(b, "fig2b") }
func Benchmark_Fig2c_NetworkErrorVsRanges(b *testing.B)   { runFigure(b, "fig2c") }
func Benchmark_Fig3a_NetworkBuildThroughput(b *testing.B) { runFigure(b, "fig3a") }
func Benchmark_Fig3b_TicketBuildThroughput(b *testing.B)  { runFigure(b, "fig3b") }
func Benchmark_Fig3c_QueryTime(b *testing.B)              { runFigure(b, "fig3c") }
func Benchmark_Fig4a_TicketErrorVsSize(b *testing.B)      { runFigure(b, "fig4a") }
func Benchmark_Fig4b_TicketUniformArea(b *testing.B)      { runFigure(b, "fig4b") }
func Benchmark_Fig4c_TicketUniformWeight(b *testing.B)    { runFigure(b, "fig4c") }

// Validation experiments (DESIGN.md).

func Benchmark_V3_DiscrepancyScaling(b *testing.B) { runFigure(b, "v3") }
func Benchmark_V5_TwoPassParity(b *testing.B)      { runFigure(b, "v5") }

// ---- Shared fixtures --------------------------------------------------------

var (
	benchOnce sync.Once
	benchDS   *structure.Dataset
	benchQs   []structure.Query
)

func fixtures(b *testing.B) (*structure.Dataset, []structure.Query) {
	b.Helper()
	benchOnce.Do(func() {
		ds, err := workload.Network(workload.NetworkConfig{Pairs: 20000, Bits: 16, Seed: 9})
		if err != nil {
			panic(err)
		}
		benchDS = ds
		r := xmath.NewRand(10)
		benchQs = workload.Battery(100, func() structure.Query {
			return workload.UniformAreaQuery(ds, 1, 0.2, r)
		})
	})
	return benchDS, benchQs
}

// ---- Parallel engine: serial vs sharded on a 1M-key input -------------------

var (
	bigOnce sync.Once
	bigDS   *structure.Dataset
)

// bigFixture is a 2-D dataset of 2^20 distinct keys (a full 1024×1024 grid)
// with heavy-tailed weights — large enough that the sharded pipeline's
// per-worker threshold computation and closing passes dominate.
func bigFixture(b *testing.B) *structure.Dataset {
	b.Helper()
	bigOnce.Do(func() {
		const bits = 10
		const n = 1 << (2 * bits) // 1,048,576 distinct keys
		r := xmath.NewRand(77)
		pts := make([][]uint64, n)
		ws := make([]float64, n)
		flat := make([]uint64, 2*n)
		for i := 0; i < n; i++ {
			pt := flat[2*i : 2*i+2]
			pt[0], pt[1] = uint64(i)>>bits, uint64(i)&(1<<bits-1)
			pts[i] = pt
			ws[i] = math.Pow(1-r.Float64(), -0.6)
		}
		axes := []structure.Axis{structure.BitTrieAxis(bits), structure.BitTrieAxis(bits)}
		ds, err := structure.NewDataset(axes, pts, ws)
		if err != nil {
			panic(err)
		}
		bigDS = ds
	})
	return bigDS
}

func benchSample1M(b *testing.B, workers int) {
	ds := bigFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := structaware.SampleParallel(ds,
			structaware.Config{Size: 4096, Seed: uint64(i + 1)}, workers)
		if err != nil {
			b.Fatal(err)
		}
		if sum.Size() != 4096 {
			b.Fatalf("size %d", sum.Size())
		}
	}
	b.ReportMetric(float64(ds.Len())*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

func BenchmarkSerialSample(b *testing.B) { benchSample1M(b, 1) }

// BenchmarkBuilderPush tracks the streaming ingestion path on the same
// 1M-key input: every key goes through Builder.Push (bounded-memory
// reservoir) and the summary is finalized once per iteration.
func BenchmarkBuilderPush(b *testing.B) {
	ds := bigFixture(b)
	pt := make([]uint64, ds.Dims())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld, err := structaware.NewBuilder(ds.Axes,
			structaware.Config{Size: 4096, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < ds.Len(); j++ {
			if err := bld.Push(ds.Point(j, pt), ds.Weights[j]); err != nil {
				b.Fatal(err)
			}
		}
		sum, err := bld.Finalize()
		if err != nil {
			b.Fatal(err)
		}
		if sum.Size() != 4096 {
			b.Fatalf("size %d", sum.Size())
		}
	}
	b.ReportMetric(float64(ds.Len())*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

// BenchmarkBuilderPushBatch is the columnar counterpart of
// BenchmarkBuilderPush: the same 1M keys ingested as whole columns via
// PushBatch (no per-key point materialization), producing byte-identical
// summaries.
func BenchmarkBuilderPushBatch(b *testing.B) {
	ds := bigFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld, err := structaware.NewBuilder(ds.Axes,
			structaware.Config{Size: 4096, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if err := bld.PushBatch(ds.Coords, ds.Weights); err != nil {
			b.Fatal(err)
		}
		sum, err := bld.Finalize()
		if err != nil {
			b.Fatal(err)
		}
		if sum.Size() != 4096 {
			b.Fatalf("size %d", sum.Size())
		}
	}
	b.ReportMetric(float64(ds.Len())*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

// BenchmarkNewDataset times the loading step of every construction:
// structure.NewDataset merging the 2^20 flow records of workload.Network
// (20-bit axes) into about a million distinct keys. It reports the time per
// input row; run it with -benchmem for the bytes and allocations.
func BenchmarkNewDataset(b *testing.B) {
	axes, pts, ws, err := workload.NetworkRows(workload.NetworkConfig{Pairs: 1 << 20, Bits: 20, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	var ds *structure.Dataset
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ds, err = structure.NewDataset(axes, pts, ws); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(pts)), "ns/key")
	b.ReportMetric(float64(ds.Len()), "keys")
}

var (
	netOnce sync.Once
	netDS   *structure.Dataset
)

// networkFixture is the key stream of a sasserve ingest shard: the paper's
// network data (workload.Network, 2^20 pairs, about 1M distinct keys) over
// two 20-bit bit-trie axes.
func networkFixture(b *testing.B) *structure.Dataset {
	b.Helper()
	netOnce.Do(func() {
		ds, err := workload.Network(workload.NetworkConfig{Pairs: 1 << 20, Bits: 20, Seed: 11})
		if err != nil {
			panic(err)
		}
		netDS = ds
	})
	return netDS
}

// BenchmarkBuilderPushBatchSteady prices PushBatch as a long-lived server
// shard pays it: one Builder (size 4096, default buffer) that has already
// ingested the whole network fixture once, so its reservoir is long past
// the fill phase and admits only a small share of arrivals, timed over
// 4096-key frames of the same keys, cycled. Unlike BenchmarkBuilderPushBatch
// no fill phase and no Finalize fall inside the timed loop.
func BenchmarkBuilderPushBatchSteady(b *testing.B) {
	const frame = 4096
	ds := networkFixture(b)
	bld, err := structaware.NewBuilder(ds.Axes, structaware.Config{Size: 4096, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := bld.PushBatch(ds.Coords, ds.Weights); err != nil {
		b.Fatal(err)
	}
	frames := ds.Len() / frame
	cols := make([][]uint64, ds.Dims())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := i % frames * frame
		for d := range cols {
			cols[d] = ds.Coords[d][lo : lo+frame]
		}
		if err := bld.PushBatch(cols, ds.Weights[lo:lo+frame]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(frame*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

// BenchmarkBuilderSnapshot measures publishing one snapshot from a Builder
// warmed with the full 1M-key input: the in-place read of the reservoir
// plus the closing pass, i.e. how long sasserve's live ingest worker stays
// parked per snapshot rotation. The Builder is not consumed — cost depends
// on the buffer (here the default 5×4096 keys), not on stream length.
func BenchmarkBuilderSnapshot(b *testing.B) {
	ds := bigFixture(b)
	bld, err := structaware.NewBuilder(ds.Axes, structaware.Config{Size: 4096, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := bld.PushBatch(ds.Coords, ds.Weights); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := bld.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		if sum.Size() != 4096 {
			b.Fatalf("size %d", sum.Size())
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "snapshots/s")
}

func BenchmarkParallelSample(b *testing.B) {
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchSample1M(b, w) })
	}
}

// ---- Indexed vs linear query path (s = 10k) ---------------------------------

var (
	idxOnce  sync.Once
	idxSum   *structaware.Summary
	idxIS    *structaware.IndexedSummary
	idxBoxes []structure.Range
)

// indexedFixture draws a 10k-key summary from the 1M-key input and compiles
// its serving index, plus a battery of ~1%-area boxes (a few hundred sampled
// keys each) to query.
func indexedFixture(b *testing.B) (*structaware.Summary, *structaware.IndexedSummary, []structure.Range) {
	b.Helper()
	idxOnce.Do(func() {
		ds := bigFixture(b)
		sum, err := structaware.SampleParallel(ds, structaware.Config{Size: 10000, Seed: 42}, 0)
		if err != nil {
			panic(err)
		}
		is, err := sum.Index()
		if err != nil {
			panic(err)
		}
		idxSum, idxIS = sum, is
		r := xmath.NewRand(6)
		for i := 0; i < 256; i++ {
			box := make(structure.Range, len(ds.Axes))
			for d, a := range ds.Axes {
				dom := a.DomainSize()
				w := dom / 10 // 10% per axis => ~1% of the area
				lo := r.Uint64() % (dom - w)
				box[d] = structure.Interval{Lo: lo, Hi: lo + w - 1}
			}
			idxBoxes = append(idxBoxes, box)
		}
	})
	return idxSum, idxIS, idxBoxes
}

// BenchmarkLinearEstimateRange is the baseline: the paper's O(s) scan of
// every sampled key per query.
func BenchmarkLinearEstimateRange(b *testing.B) {
	sum, _, boxes := indexedFixture(b)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += sum.EstimateRange(boxes[i%len(boxes)])
	}
	_ = sink
}

// BenchmarkIndexedEstimateRange answers the same queries through the
// compiled index (Summary.Index): O(log s + answer) per query, bit-for-bit
// identical results. Compare with BenchmarkLinearEstimateRange.
func BenchmarkIndexedEstimateRange(b *testing.B) {
	_, is, boxes := indexedFixture(b)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += is.EstimateRange(boxes[i%len(boxes)])
	}
	_ = sink
}

// BenchmarkHeavyHitters ranks a full-domain box of a 4,096-key summary for
// its k = 3 heaviest keys, the serving path of a heavyhitters request.
func BenchmarkHeavyHitters(b *testing.B) {
	ds, _ := fixtures(b)
	sum, err := structaware.Build(ds, structaware.Config{Size: 4096, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	is, err := sum.Index()
	if err != nil {
		b.Fatal(err)
	}
	full := ds.FullRange()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if keys, _ := is.HeavyHitters(full, 3); len(keys) != 3 {
			b.Fatalf("%d keys", len(keys))
		}
	}
}

// ---- Micro: core primitives -------------------------------------------------

func BenchmarkPairAggregate(b *testing.B) {
	r := xmath.NewRand(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		paggr.PairValues(0.3, 0.4, r)
	}
}

func BenchmarkStreamThreshold(b *testing.B) {
	r := xmath.NewRand(2)
	ws := make([]float64, 100000)
	for i := range ws {
		ws[i] = 1 + 100*r.Float64()
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st, _ := ipps.NewStreamThreshold(1000)
		for _, w := range ws {
			_ = st.Process(w)
		}
	}
	b.SetBytes(int64(len(ws)) * 8)
}

func BenchmarkStreamVarOpt(b *testing.B) {
	r := xmath.NewRand(3)
	ws := make([]float64, 100000)
	for i := range ws {
		ws[i] = 1 + 100*r.Float64()
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st, _ := varopt.NewStream(1000, r)
		for j, w := range ws {
			_, _ = st.Process(j, w)
		}
	}
	b.SetBytes(int64(len(ws)) * 8)
}

// ---- Micro: per-method construction ----------------------------------------

func benchBuild(b *testing.B, method string, size int) {
	ds, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expt.BuildSummary(method, ds, size, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(ds.Len()))
}

func BenchmarkBuildAwareTwoPass(b *testing.B) { benchBuild(b, expt.MAware, 1000) }
func BenchmarkBuildAwareMainMem(b *testing.B) { benchBuild(b, expt.MAwareMM, 1000) }
func BenchmarkBuildOblivious(b *testing.B)    { benchBuild(b, expt.MObliv, 1000) }
func BenchmarkBuildWavelet(b *testing.B)      { benchBuild(b, expt.MWavelet, 1000) }
func BenchmarkBuildQDigest(b *testing.B)      { benchBuild(b, expt.MQDigest, 1000) }
func BenchmarkBuildSketch(b *testing.B)       { benchBuild(b, expt.MSketch, 1000) }

// ---- Micro: per-method query answering --------------------------------------

func benchQuery(b *testing.B, method string, dyadic bool) {
	ds, qs := fixtures(b)
	built, err := expt.BuildSummary(method, ds, 1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	s := built.Summary
	if dyadic {
		s = expt.DyadicWavelet{W: built.Summary.(*wavelet.Summary2D)}
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.EstimateQuery(qs[i%len(qs)])
	}
	_ = sink
}

func BenchmarkQuerySample(b *testing.B)        { benchQuery(b, expt.MAware, false) }
func BenchmarkQueryWaveletFast(b *testing.B)   { benchQuery(b, expt.MWavelet, false) }
func BenchmarkQueryWaveletDyadic(b *testing.B) { benchQuery(b, expt.MWavelet, true) }
func BenchmarkQueryQDigest(b *testing.B)       { benchQuery(b, expt.MQDigest, false) }
func BenchmarkQuerySketch(b *testing.B)        { benchQuery(b, expt.MSketch, false) }

// ---- Micro: structure-aware building blocks ---------------------------------

func BenchmarkKDBuild(b *testing.B) {
	ds, _ := fixtures(b)
	tau, err := ipps.Threshold(ds.Weights, 1000)
	if err != nil {
		b.Fatal(err)
	}
	p := ipps.Probabilities(ds.Weights, tau)
	items := make([]int, 0, ds.Len())
	for i, pi := range p {
		if pi > 0 && pi < 1 {
			items = append(items, i)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := append([]int(nil), items...)
		if _, err := kd.Build(ds, work, p, kd.Config{}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(items)))
}

var (
	shardOnce  sync.Once
	shardDS    *structure.Dataset
	shardItems []int
	shardP     []float64
)

// kdShard is the closing pass's input in one SampleParallel shard of a
// perfbench-sized build: the first half of 2^20 workload.Network pairs on
// two 20-bit axes, and the items of that half that are fractional at its
// IPPS threshold for 4,096 keys, with their probabilities.
func kdShard(b *testing.B) (*structure.Dataset, []int, []float64) {
	b.Helper()
	shardOnce.Do(func() {
		ds, err := workload.Network(workload.NetworkConfig{Pairs: 1 << 20, Bits: 20, Seed: 5})
		if err != nil {
			panic(err)
		}
		half := ds.Weights[:ds.Len()/2]
		tau, err := ipps.Threshold(half, 4096)
		if err != nil {
			panic(err)
		}
		shardDS, shardP = ds, make([]float64, ds.Len())
		copy(shardP, ipps.Probabilities(half, tau))
		for i, pi := range shardP {
			if pi > 0 && pi < 1 {
				shardItems = append(shardItems, i)
			}
		}
	})
	return shardDS, shardItems, shardP
}

// BenchmarkKDSummarize times kd.Summarize at perfbench's scale, where its
// lists outgrow the caches (BenchmarkKDBuild's fit in them), and reports
// the time per fractional item.
func BenchmarkKDSummarize(b *testing.B) {
	ds, items, p0 := kdShard(b)
	work, p := make([]int, len(items)), make([]float64, len(p0))
	r := xmath.NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(work, items)
		copy(p, p0)
		b.StartTimer()
		if err := kd.Summarize(ds, work, p, r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(items)), "ns/item")
	b.ReportMetric(float64(len(items)), "items")
}

// BenchmarkKDLocate times pass 2 of Build(AwareTwoPass) at perfbench's
// scale: a tree over the pass-1 guide for s = 4,096 (the small keys of a
// 5 × 4,096 = 20,480-key reservoir over kdShard's 2^20 network pairs,
// weighted w/τ_s), through which every key of the dataset is routed. Its
// cells outgrow the caches, as pass 2's do, and it reports the time per
// routed key.
func BenchmarkKDLocate(b *testing.B) {
	ds, _, _ := kdShard(b)
	const s = 4096
	ing, err := ingest.New(ingest.Config{Capacity: 5 * s, Dims: ds.Dims(), ThresholdSize: s}, xmath.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	if err := ing.PushBatch(ds.Coords, ds.Weights); err != nil {
		b.Fatal(err)
	}
	reservoir, coords, _ := ing.Reservoir()
	tau, _ := ing.Tau()
	guide := &structure.Dataset{Axes: ds.Axes, Coords: make([][]uint64, ds.Dims())}
	var p []float64
	for k, it := range reservoir {
		if it.Weight >= tau {
			continue
		}
		for d := range coords {
			guide.Coords[d] = append(guide.Coords[d], coords[d][k])
		}
		p = append(p, it.Weight/tau)
	}
	items := make([]int, len(p))
	for i := range items {
		items[i] = i
	}
	tree, err := kd.Build(guide, items, p, kd.Config{})
	if err != nil {
		b.Fatal(err)
	}
	pt := make([]uint64, ds.Dims())
	sink := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < ds.Len(); k++ {
			sink += tree.Locate(ds.Point(k, pt))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ds.Len()), "ns/key")
	b.ReportMetric(float64(len(p)), "guide")
	_ = sink
}

func BenchmarkOrderSummarize(b *testing.B) {
	ds, _ := fixtures(b)
	tau, _ := ipps.Threshold(ds.Weights, 1000)
	p0 := ipps.Probabilities(ds.Weights, tau)
	order := make([]int, ds.Len())
	for i := range order {
		order[i] = i
	}
	r := xmath.NewRand(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := append([]float64(nil), p0...)
		aware.Order(p, order, r)
	}
	b.SetBytes(int64(ds.Len()))
}

func BenchmarkBitTrieSummarize(b *testing.B) {
	ds, _ := fixtures(b)
	tau, _ := ipps.Threshold(ds.Weights, 1000)
	p0 := ipps.Probabilities(ds.Weights, tau)
	order := make([]int, ds.Len())
	for i := range order {
		order[i] = i
	}
	coords := ds.Coords[0]
	sort.Slice(order, func(a, c int) bool { return coords[order[a]] < coords[order[c]] })
	r := xmath.NewRand(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := append([]float64(nil), p0...)
		aware.BitTrie(p, order, coords, ds.Axes[0].Bits, r)
	}
	b.SetBytes(int64(ds.Len()))
}

func BenchmarkTwoPassStreamCSVScale(b *testing.B) {
	// End-to-end out-of-core cost: the slice source stands in for the file
	// (parsing is benchmarked separately by the CSV source tests).
	ds, _ := fixtures(b)
	pts := make([][]uint64, ds.Len())
	for i := range pts {
		pts[i] = ds.Point(i, nil)
	}
	src := &twopass.SliceSource{Points: pts, Weights: ds.Weights}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := twopass.Product(src, ds.Axes, 1000, twopass.Config{}, xmath.NewRand(uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(ds.Len()))
}
