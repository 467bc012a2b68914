package main

// layers.go turns the traced run into the per-layer metrics: the layer
// replay's self times, the client spans, the tracing overhead, and the
// reconciliation of the server's CPU per operation against the replayed
// layers.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// headline is the end-to-end metric trace.overhead_pct compares between
// the untraced and the traced pass of a traced run.
const headline = "ops_per_s"

// traced runs the workload twice — untraced, then with client spans — then
// the layer replay, and records the per-layer metrics.
func (r *run) traced(fn func(*run) error) error {
	if err := fn(r); err != nil {
		return err
	}
	base := r.values[headline]
	r.stopAll()
	r.client = newClientTrace()
	if err := fn(r); err != nil {
		return err
	}
	traced := r.values[headline]
	r.set("trace.overhead_pct", 100*(traced-base)/base)
	r.note(fmt.Sprintf("trace overhead on %s: %.6g untraced, %.6g traced", headline, base, traced))
	client := aggregate(flatten(r.client.recs))
	for _, name := range sortedNames(client.calls) {
		r.note(fmt.Sprintf("client span %-14s %8d calls, p50 %.1f us, p99 %.1f us", name, client.calls[name],
			client.durQuantile(name, 0.50, time.Microsecond), client.durQuantile(name, 0.99, time.Microsecond)))
	}
	if r.workload != "build" {
		// The build-side layers run on the build workload's dataset on
		// every workload, so their numbers compare across workloads.
		ds, err := networkKeys(buildPairs, subSeed(r.seed, 5))
		if err != nil {
			return err
		}
		r.plan.ds = ds
	}
	lt, st, err := r.replay(r.plan)
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	r.setLayerMetrics(lt, st)
	dir := filepath.Join(r.root, ".bench_build", "traces")
	return r.writeTraces(dir, append(r.client.recs, r.traceSpans...))
}

// flatten merges recorders for aggregation; parent links stay within
// each recorder, so indices are shifted by the spans before it.
func flatten(recs []*recorder) []span {
	var out []span
	for _, rec := range recs {
		off := len(out)
		for _, s := range rec.spans {
			if s.Parent >= 0 {
				s.Parent += off
			}
			out = append(out, s)
		}
	}
	return out
}

func sortedNames[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func (r *run) writeTraces(dir string, recs []*recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(dir, strings.TrimSuffix(r.reportName(), ".json")+".spans.jsonl"), recs)
}

// setLayerMetrics records the replay's per-layer metrics and prints the
// reconciliation of server CPU per operation against them.
func (r *run) setLayerMetrics(lt layerTimes, st replayStats) {
	keys := st.keys
	r.set("wire.decode_ns_per_key", lt.perOp("wire.decode", keys, time.Nanosecond))
	r.set("wire.encode_ns_per_key", float64(r.plan.pool.encode.Nanoseconds())/float64(len(r.plan.pool.frames)*frameKeys))
	r.set("wal.append_us_p50", lt.durQuantile("wal.append", 0.50, time.Microsecond))
	r.set("wal.append_us_p99", lt.durQuantile("wal.append", 0.99, time.Microsecond))
	r.set("wal.sync_ms_p99", lt.durQuantile("wal.sync", 0.99, time.Millisecond))
	r.set("wal.bytes_per_key", float64(st.walBytes)/float64(keys))
	r.set("wal.replay_ms", lt.perCall("wal.replay", time.Millisecond))
	r.set("core.pushbatch_ns_per_key", lt.perOp("core.pushbatch", keys, time.Nanosecond))
	r.set("core.snapshot_ms", lt.perCall("core.snapshot", time.Millisecond))
	r.set("core.merge_ms", lt.perCall("core.merge", time.Millisecond))
	r.set("core.index_ms", lt.perCall("core.index", time.Millisecond))
	r.set("core.persist_ms", lt.perCall("core.persist", time.Millisecond))
	r.set("core.load_ms", lt.perCall("core.load", time.Millisecond))
	r.set("core.build_serial_keys_per_s", float64(r.plan.ds.Len())/lt.self["core.build"].Seconds())
	r.set("ipps.threshold_ms", lt.perCall("ipps.threshold", time.Millisecond))
	r.set("kd.build_ms", lt.perCall("kd.build", time.Millisecond))
	r.set("engine.close_ms", lt.perCall("engine.close", time.Millisecond))
	q := st.queries
	r.set("structure.parse_ns", lt.perCall("structure.parse", time.Nanosecond))
	r.set("anscache.get_ns", (lt.perOp("anscache.get", q, time.Nanosecond) + lt.perOp("anscache.put", q, time.Nanosecond)))
	r.set("queryidx.estimate_ns", lt.perCall("queryidx.estimate", time.Nanosecond))
	r.set("bounds.bound_ns", lt.perCall("bounds.bound", time.Nanosecond))
	if _, ok := r.values["anscache.hit_ratio"]; !ok {
		r.set("anscache.hit_ratio", float64(st.hits)/float64(q))
	}

	// Reconciliation: server CPU per operation = Σ replayed layer self
	// times per operation + the residual no public function accounts for.
	// Spans are wall time, so the two that mostly wait for fsync — the
	// background wal.sync and core.persist — are printed beside the sum,
	// not in it: server CPU does not count waiting. The build workload has
	// no server: SampleParallel's CPU per key runs none of the replayed
	// write-path layers, so all of it is residual, and its CPU per query is
	// the in-process EstimateRange loop's.
	keyLayers := []string{"wire.decode", "wal.append", "core.pushbatch", "wal.cut", "core.snapshot", "core.merge", "core.index", "wal.truncate"}
	queryLayers := []string{"anscache.get", "structure.parse", "queryidx.estimate", "bounds.bound", "anscache.put"}
	keyOps, queryOps := keys, q
	if r.workload == "build" {
		keyLayers = nil
		queryLayers, queryOps = []string{"queryidx.estimate"}, int64(lt.calls["queryidx.estimate"])
	}
	sumKey, parts := 0.0, []string{}
	for _, name := range keyLayers {
		v := lt.perOp(name, keyOps, time.Nanosecond)
		sumKey += v
		parts = append(parts, fmt.Sprintf("%s %.1f", name, v))
	}
	resKey := r.serverCPUPerKey - sumKey
	r.set("sasserve.residual_ns_per_key", resKey)
	if len(keyLayers) == 0 {
		r.note(fmt.Sprintf("reconcile %s per key: SampleParallel CPU %.1f ns = sasserve.residual %.1f (ns); no server layer runs",
			r.workload, r.serverCPUPerKey, resKey))
	} else {
		r.note(fmt.Sprintf("reconcile %s per key: server CPU %.1f ns = %s + sasserve.residual %.1f (ns); fsync waits beside it: wal.sync %.1f, core.persist %.1f",
			r.workload, r.serverCPUPerKey, strings.Join(parts, " + "), resKey,
			lt.perOp("wal.sync", keys, time.Nanosecond), lt.perOp("core.persist", keys, time.Nanosecond)))
	}
	sumQ, parts := 0.0, parts[:0]
	for _, name := range queryLayers {
		v := lt.perOp(name, queryOps, time.Microsecond)
		sumQ += v
		parts = append(parts, fmt.Sprintf("%s %.3f", name, v))
	}
	resQ := r.serverCPUPerQuery - sumQ
	r.set("sasserve.residual_us_per_query", resQ)
	r.note(fmt.Sprintf("reconcile %s per query: server CPU %.3f us = %s + sasserve.residual %.3f (us)",
		r.workload, r.serverCPUPerQuery, strings.Join(parts, " + "), resQ))
	r.note(fmt.Sprintf("client cost: loadgen.cpu_us_per_req %.3f us", r.values["loadgen.cpu_us_per_req"]))
	r.note(fmt.Sprintf("host steal: host.steal_pct %.2f %%", r.values["host.steal_pct"]))
}
