// Command perfbench is the repository's end-to-end benchmark. It builds
// cmd/sasserve from the checkout it runs in, drives the server over HTTP
// with seeded inputs from this single load-generator process, runs the
// library's batch build in-process, checks the outputs, and prints every
// metric by name with its unit. The last line of its output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}, holding the
// end-to-end metrics of an untraced run or the per-layer metrics of a
// traced one. README.md describes the workloads and defines every metric.
//
// Run it from the checkout root:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool

	root string // checkout root
	work string // this run's scratch directory, removed at exit
	bin  string // the sasserve binary under test
	log  *os.File
	// servers are the sasserve processes started so far; stopAll ends them.
	servers []*serverProc

	values map[string]float64
	// Server CPU per operation of the timed phase, for the traced run's
	// reconciliation against the replayed layers.
	serverCPUPerKey   float64      // ns per acked key (ingest)
	serverCPUPerQuery float64      // us per answered query (query, phase A)
	client            *clientTrace // the load generator's spans, in a traced run
	burstQueries      int          // queries of the last query burst
	dirs              int          // snapshot directories made so far
	plan              replayPlan   // the inputs the layer replay repeats
	traceSpans        []*recorder  // the layer replay's spans
	attempted         int64
	failed            int64
	gateErrs          []string
	notes             []string // reconciliation and context lines for the report
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.values[name] = v }

// gate records the outcome of one correctness check.
func (r *run) gate(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if ok {
		r.note("gate ok: " + msg)
		return
	}
	r.gateErrs = append(r.gateErrs, msg)
	r.note("GATE FAILED: " + msg)
}

func (r *run) note(line string) {
	r.notes = append(r.notes, line)
	fmt.Fprintln(os.Stderr, "perfbench:", line)
}

var workloads = map[string]func(*run) error{
	"ingest": (*run).ingest,
	"query":  (*run).query,
	"build":  (*run).build,
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload to run: ingest, query, or build")
		seed    = flag.Uint64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", 10, "length of the measured phase, in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run: report the per-layer metrics instead of the end-to-end ones")
		root    = flag.String("root", ".", "checkout root: the source of cmd/sasserve and the home of .bench_build")
	)
	flag.Parse()
	fn, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload ingest|query|build --seed n --seconds n --trace 0|1")
		os.Exit(2)
	}
	r := &run{
		workload: *wl, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		values: make(map[string]float64),
	}
	res, err := r.execute(*root, fn)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute prepares the run's directories and binary, runs the workload,
// and assembles the result.
func (r *run) execute(root string, fn func(*run) error) (*result, error) {
	var err error
	if r.root, err = filepath.Abs(root); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(r.root, "cmd", "sasserve")); err != nil {
		return nil, fmt.Errorf("%s is not a checkout of this repository: %w", r.root, err)
	}
	out := filepath.Join(r.root, ".bench_build")
	r.work = filepath.Join(out, fmt.Sprintf("run-%s-%d-%d", r.workload, r.seed, os.Getpid()))
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.work)
	defer r.stopAll()
	if r.workload != "build" {
		if r.bin, err = buildServer(r.root, filepath.Join(out, "bin")); err != nil {
			return nil, err
		}
		if r.log, err = os.Create(filepath.Join(out, "sasserve-"+r.workload+".log")); err != nil {
			return nil, err
		}
		defer r.log.Close()
	}
	do := fn
	if r.trace {
		do = func(r *run) error { return r.traced(fn) }
	}
	if err := do(r); err != nil {
		return nil, fmt.Errorf("workload %s: %w", r.workload, err)
	}
	return r.finish(out)
}

// finish prints every metric with its unit, writes the run report, and
// selects the metrics of the result line.
func (r *run) finish(out string) (*result, error) {
	want := endToEnd
	if r.trace {
		want = perLayer
	}
	res := &result{
		Correct: len(r.gateErrs) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metric, len(want)),
	}
	var missing []string
	for _, m := range want {
		v, ok := r.values[m.name]
		if !ok {
			missing = append(missing, m.name)
			continue
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("workload %s measured no value for %s", r.workload, strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	units := make(map[string]string)
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		units[m.name] = m.unit
	}
	names := sortedNames(r.values)
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%.0f trace=%v\n", r.workload, r.seed, r.seconds.Seconds(), r.trace)
	ctx := machineContext(r.root)
	for _, k := range sortedNames(ctx) {
		fmt.Printf("# context %s: %s\n", k, ctx[k])
	}
	for _, n := range names {
		fmt.Printf("%-34s %16.6g %s\n", n, r.values[n], units[n])
	}
	for _, l := range r.notes {
		fmt.Println("#", l)
	}
	fmt.Printf("# attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	report := map[string]any{
		"workload": r.workload, "seed": r.seed, "seconds": r.seconds.Seconds(), "trace": r.trace,
		"parameters": parameters[r.workload], "context": ctx, "values": r.values, "notes": r.notes,
		"attempted": res.Attempted, "failed": res.Failed, "correct": res.Correct,
	}
	if err := writeReport(filepath.Join(out, "reports"), r.reportName(), report); err != nil {
		return nil, err
	}
	return res, nil
}

func (r *run) reportName() string {
	t := 0
	if r.trace {
		t = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d.json", r.workload, r.seed, t)
}

func writeReport(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// machineContext describes the machine and the code under test.
func machineContext(root string) map[string]string {
	ctx := map[string]string{
		"nproc":                fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs_generator": fmt.Sprint(runtime.GOMAXPROCS(0)),
		// The server runs with the default GOMAXPROCS, which is nproc.
		"gomaxprocs_server": fmt.Sprint(runtime.NumCPU()),
		"go":                runtime.Version(),
		"cpu":               "unknown",
		"kernel":            "unknown",
		"commit":            "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				ctx["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		ctx["kernel"] = strings.TrimSpace(string(b))
	}
	// Only a checkout that is itself a git work tree names its commit; git
	// must not find an enclosing repository instead.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = root
		if b, err := cmd.Output(); err == nil {
			ctx["commit"] = strings.TrimSpace(string(b))
		}
	}
	return ctx
}
