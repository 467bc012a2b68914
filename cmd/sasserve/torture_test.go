package main

// torture_test.go is the crash-recovery gauntlet for the WAL (internal/wal
// + live.go): it runs a real sasserve binary as a subprocess, arms one of
// the three fault-injection crashpoints (SASFAULT, see internal/fault),
// drives acknowledged ingest over HTTP binary frames until the process
// kills itself mid-write, restarts it over the same directory, and asserts
// the recovered state is EXACTLY the deterministic function of the
// acknowledged stream: zero acknowledged-key loss and estimates bitwise
// equal to a reference simulator that replays the same pushes, snapshot
// attempts, and crashes against offline core.Builders.
//
// The reference replicates the server's merge lineage rather than a single
// never-crashed builder, because the lineage is observable: a restart
// introduces a merge step (recovered base + replayed builder, seeded by
// the attempt sequence), so the recovered estimates are bitwise equal to
// the reference's — and any acknowledged record the WAL lost, replayed
// twice, or replayed out of order shifts the reservoir decisions and
// breaks the equality loudly.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"structaware/internal/core"
	"structaware/internal/fault"
	"structaware/internal/structure"
	"structaware/internal/wire"
	"structaware/internal/xmath"
)

// tortureCyclesFull is the random-crashpoint cycle budget of the full run;
// -short (the CI -race configuration) runs tortureCyclesShort.
const (
	tortureCyclesFull  = 20
	tortureCyclesShort = 5
)

// tortureBin builds the sasserve binary once per test process; TestMain
// removes the directory after the run.
var tortureBin struct {
	once sync.Once
	dir  string
	path string
	err  error
}

func buildTortureServer(t *testing.T) string {
	t.Helper()
	tortureBin.once.Do(func() {
		dir, err := os.MkdirTemp("", "sasserve-torture-bin-")
		if err != nil {
			tortureBin.err = err
			return
		}
		tortureBin.dir = dir
		path := filepath.Join(dir, "sasserve")
		out, err := exec.Command("go", "build", "-o", path, ".").CombinedOutput()
		if err != nil {
			tortureBin.err = fmt.Errorf("go build: %v\n%s", err, out)
			return
		}
		tortureBin.path = path
	})
	if tortureBin.err != nil {
		t.Fatal(tortureBin.err)
	}
	return tortureBin.path
}

func TestMain(m *testing.M) {
	code := m.Run()
	if tortureBin.dir != "" {
		os.RemoveAll(tortureBin.dir)
	}
	os.Exit(code)
}

// serverProc is one running sasserve subprocess under test.
type serverProc struct {
	cmd    *exec.Cmd
	url    string        // http://host:port once the listener is up
	exited chan error    // cmd.Wait result
	logs   *bytes.Buffer // full stderr, dumped on failure
	logsMu sync.Mutex
}

// startTortureServer launches the binary over dir with the live summary the
// reference simulator mirrors, plus any extra env (SASFAULT=point:hit arms
// a crashpoint). It returns once the HTTP listener address is known — which
// is before recovery finishes; callers gate on waitReady.
func startTortureServer(t *testing.T, bin, dir string, env ...string) *serverProc {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-live", "net="+liveAxesSpec,
		"-live-size", fmt.Sprint(liveTestCfg.Size),
		"-live-seed", fmt.Sprint(liveTestCfg.Seed),
		"-snapshot-dir", dir,
		"-wal-sync", "interval",
	)
	cmd.Env = append(os.Environ(), env...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &serverProc{cmd: cmd, exited: make(chan error, 1), logs: &bytes.Buffer{}}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.logsMu.Lock()
			fmt.Fprintln(p.logs, line)
			p.logsMu.Unlock()
			if _, addr, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addrCh <- strings.TrimSpace(addr):
				default: // only the first listener line names the HTTP port
				}
			}
		}
	}()
	go func() { p.exited <- cmd.Wait() }()
	// A t.Fatal mid-cycle must not leave a subprocess running until the
	// whole test binary exits; killing an already-dead process is a no-op.
	t.Cleanup(func() { cmd.Process.Kill() })
	select {
	case addr := <-addrCh:
		p.url = "http://" + addr
	case err := <-p.exited:
		t.Fatalf("server exited before listening: %v\n%s", err, p.dumpLogs())
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("server never announced its listener\n%s", p.dumpLogs())
	}
	return p
}

func (p *serverProc) dumpLogs() string {
	p.logsMu.Lock()
	defer p.logsMu.Unlock()
	return p.logs.String()
}

// waitReady polls /readyz until it answers 200 — i.e. snapshot recovery and
// WAL replay are done and the summaries are queryable.
func (p *serverProc) waitReady(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(p.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		select {
		case err := <-p.exited:
			t.Fatalf("server exited while becoming ready: %v\n%s", err, p.dumpLogs())
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("server never became ready\n%s", p.dumpLogs())
}

// waitExit asserts the process exits with the given code within a timeout.
func (p *serverProc) waitExit(t *testing.T, wantCode int) {
	t.Helper()
	select {
	case err := <-p.exited:
		code := 0
		var xe *exec.ExitError
		if errors.As(err, &xe) {
			code = xe.ExitCode()
		} else if err != nil {
			t.Fatalf("server exit: %v\n%s", err, p.dumpLogs())
		}
		if code != wantCode {
			t.Fatalf("server exited %d, want %d\n%s", code, wantCode, p.dumpLogs())
		}
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		t.Fatalf("server did not exit (want code %d)\n%s", wantCode, p.dumpLogs())
	}
}

// sigterm asks for a graceful shutdown and asserts exit 0.
func (p *serverProc) sigterm(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	p.waitExit(t, 0)
}

// tortureRef is the reference simulator: the deterministic function from
// the acknowledged stream (plus the crash/attempt schedule) to the
// published summary, built from the same core primitives the server uses.
type tortureRef struct {
	t    *testing.T
	axes []structure.Axis

	builder *core.Builder // mirrors the live process's builder
	base    *core.Summary // mirrors ls.base: newest persisted snapshot
	seq     uint64        // snapshot attempt sequence (consumed by failures too)

	// pending mirrors the WAL tail: every acknowledged batch after the
	// newest persisted snapshot's cut, in ack order. A crash rebuilds the
	// builder from exactly these.
	pending []wire.Batch
	lastSum *core.Summary // newest persisted snapshot's summary
}

func newTortureRef(t *testing.T) *tortureRef {
	axes, err := structure.ParseAxisSpec(liveAxesSpec)
	if err != nil {
		t.Fatal(err)
	}
	r := &tortureRef{t: t, axes: axes}
	r.builder = r.freshBuilder()
	return r
}

func (r *tortureRef) freshBuilder() *core.Builder {
	// The same config initLive gives the live builder.
	b, err := core.NewBuilder(r.axes, liveTestCfg)
	if err != nil {
		r.t.Fatal(err)
	}
	return b
}

// push mirrors one acknowledged batch.
func (r *tortureRef) push(coords [][]uint64, weights []float64) {
	if err := r.builder.PushBatch(coords, weights); err != nil {
		r.t.Fatal(err)
	}
	r.pending = append(r.pending, wire.Batch{Coords: coords, Weights: weights})
}

// pendingKeys is the acknowledged-key count a recovering server must report.
func (r *tortureRef) pendingKeys() int64 {
	var n int64
	for _, b := range r.pending {
		n += int64(len(b.Weights))
	}
	return n
}

// snapshot mirrors one snapshot attempt. A successful attempt publishes the
// merge of base and the builder snapshot (seeded by the attempt sequence) and
// moves the WAL coverage boundary; a failed one only consumes the sequence
// number — the coverage rule's crash-consistency depends on windows never
// being reused, so the server burns the seq even when the rotation dies.
func (r *tortureRef) snapshot(ok bool) *core.Summary {
	r.seq++
	if !ok {
		return nil
	}
	var parts []*core.Summary
	if r.base != nil {
		parts = append(parts, r.base)
	}
	snap, err := r.builder.Snapshot()
	if err != nil && !errors.Is(err, core.ErrNoData) {
		r.t.Fatal(err)
	}
	if err == nil {
		parts = append(parts, snap)
	}
	var sum *core.Summary
	switch len(parts) {
	case 0:
		r.t.Fatal("reference snapshot with no data")
	case 1:
		sum = parts[0]
	default:
		sum, err = core.MergeSummaries(liveTestCfg.Size, liveTestCfg.Seed+r.seq, parts...)
		if err != nil {
			r.t.Fatal(err)
		}
	}
	r.lastSum = sum
	r.pending = nil
	return sum
}

// recover mirrors a crash restart: the builder state dies with the process
// and is rebuilt from the newest persisted snapshot (the base) plus a
// replay of the pending batches, in ack order — which is exactly
// newest-loadable-snapshot + WAL-tail replay.
func (r *tortureRef) recover() {
	r.base = r.lastSum
	r.builder = r.freshBuilder()
	for i := range r.pending {
		if err := r.builder.PushBatch(r.pending[i].Coords, r.pending[i].Weights); err != nil {
			r.t.Fatal(err)
		}
	}
}

// tortureBoxes is the estimate battery compared bitwise each cycle: full
// domain, disjoint quadrants, and narrow strips that hit individual keys.
var tortureBoxes = []structure.Range{
	{{Lo: 0, Hi: 1023}, {Lo: 0, Hi: 1023}},
	{{Lo: 0, Hi: 511}, {Lo: 0, Hi: 511}},
	{{Lo: 512, Hi: 1023}, {Lo: 0, Hi: 511}},
	{{Lo: 0, Hi: 511}, {Lo: 512, Hi: 1023}},
	{{Lo: 512, Hi: 1023}, {Lo: 512, Hi: 1023}},
	{{Lo: 100, Hi: 199}, {Lo: 0, Hi: 1023}},
	{{Lo: 0, Hi: 1023}, {Lo: 900, Hi: 949}},
}

// pushFrame sends one binary-frame push and returns the decoded response
// (ok=false when the transport or server failed — the crash push).
func pushFrame(t *testing.T, url string, coords [][]uint64, weights []float64) (pushResponse, bool) {
	t.Helper()
	frame, err := wire.AppendFrame(nil, coords, weights)
	if err != nil {
		t.Fatal(err)
	}
	var pr pushResponse
	code := postJSONNoFatal(url+"/v1/summaries/net/keys", wire.ContentType, frame, &pr)
	return pr, code == http.StatusOK
}

// postJSONNoFatal is postJSON without the t.Fatal on transport errors: the
// torture client deliberately talks to servers that die mid-request.
func postJSONNoFatal(url, ctype string, body []byte, v any) int {
	resp, err := http.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := jsonDecode(resp.Body, v); err != nil {
			return 0
		}
	}
	return resp.StatusCode
}

func jsonDecode(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }

// verifyRecovered force-snapshots the recovered server, mirrors the attempt
// into the reference, and asserts the published estimates are bitwise equal
// across the battery. wantPushed is the acknowledged-key count this process
// must have accepted (replayed + post-recovery pushes): the zero-loss check.
func verifyRecovered(t *testing.T, p *serverProc, ref *tortureRef, wantPushed int64) {
	t.Helper()
	var snap struct {
		Snapshot uint64 `json:"snapshot"`
		Pushed   int64  `json:"pushed"`
	}
	if code := postJSONNoFatal(p.url+"/v1/summaries/net/snapshot", "application/json", nil, &snap); code != http.StatusOK {
		t.Fatalf("verify snapshot status %d\n%s", code, p.dumpLogs())
	}
	want := ref.snapshot(true)
	if snap.Snapshot != ref.seq {
		t.Fatalf("verify snapshot seq %d, reference expects %d\n%s", snap.Snapshot, ref.seq, p.dumpLogs())
	}
	if snap.Pushed != wantPushed {
		t.Fatalf("acknowledged-key loss: server accepted %d keys, want %d\n%s", snap.Pushed, wantPushed, p.dumpLogs())
	}
	for _, box := range tortureBoxes {
		var got estimateResponse
		resp, err := http.Get(p.url + "/v1/summaries/net/estimate?range=" + box.String())
		if err != nil {
			t.Fatal(err)
		}
		if err := jsonDecode(resp.Body, &got); err != nil {
			resp.Body.Close()
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(got.Estimates) != 1 {
			t.Fatalf("box %s: %d estimates", box, len(got.Estimates))
		}
		if math.Float64bits(got.Estimates[0]) != math.Float64bits(want.EstimateRange(box)) {
			t.Fatalf("box %s: recovered estimate %v, reference %v (bitwise mismatch)\n%s",
				box, got.Estimates[0], want.EstimateRange(box), p.dumpLogs())
		}
	}
}

// TestRecoveryTorture is the kill-9 loop: N cycles of {arm a random
// crashpoint, ingest acknowledged batches, crash, restart, assert zero
// acknowledged-key loss and bitwise-equal estimates}. The directory and the
// reference simulator persist across cycles, so every cycle also verifies
// recovery from the accumulated lineage of all previous crashes.
func TestRecoveryTorture(t *testing.T) {
	bin := buildTortureServer(t)
	dir := t.TempDir()
	ref := newTortureRef(t)

	cycles := tortureCyclesFull
	if testing.Short() {
		cycles = tortureCyclesShort
	}
	const rngSeed = 20260808 // fixed: reruns replay the same schedule
	rng := xmath.NewRand(rngSeed)
	t.Logf("torture: %d cycles, rng seed %d", cycles, rngSeed)

	points := []string{faultPostAck, faultPreRotate, faultMidRename}
	keySeed := uint64(1000)
	totalAcked := int64(0)

	for cycle := 0; cycle < cycles; cycle++ {
		point := points[rng.Uint64()%3]

		// Random per-cycle schedule: a few pushes, maybe a successful
		// snapshot, more pushes, then the crash.
		preSnapPushes := 1 + int(rng.Uint64()%3)
		withSnap := rng.Uint64()%2 == 0
		postSnapPushes := 1 + int(rng.Uint64()%3)

		var hit int
		switch point {
		case faultPostAck:
			// The n-th acknowledged push dies after its ack is written.
			if withSnap {
				hit = preSnapPushes + postSnapPushes
			} else {
				hit = preSnapPushes
			}
		default:
			// The n-th rotation attempt dies (pre-rotate or mid-rename).
			hit = 1
			if withSnap {
				hit = 2
			}
		}
		t.Logf("cycle %d: %s:%d (pushes %d%s%d)", cycle, point, hit,
			preSnapPushes, map[bool]string{true: " +snap+ ", false: " "}[withSnap], postSnapPushes)

		p := startTortureServer(t, bin, dir, "SASFAULT="+point+":"+fmt.Sprint(hit))
		p.waitReady(t)

		doPush := func() {
			n := 10 + int(rng.Uint64()%50)
			coords, weights := genKeys(n, keySeed)
			keySeed++
			// The push is acknowledged-or-crashing by construction: the
			// schedule arms the fault at a known hit, so a failed response
			// here is the dying ack of a batch the WAL already holds — the
			// reference counts it either way.
			pushFrame(t, p.url, coords, weights)
			ref.push(coords, weights)
			totalAcked += int64(n)
		}
		snapOK := func() {
			var snap struct {
				Snapshot uint64 `json:"snapshot"`
			}
			if code := postJSONNoFatal(p.url+"/v1/summaries/net/snapshot", "application/json", nil, &snap); code != http.StatusOK {
				t.Fatalf("cycle %d: mid-cycle snapshot status %d\n%s", cycle, code, p.dumpLogs())
			}
			if sum := ref.snapshot(true); sum == nil || snap.Snapshot != ref.seq {
				t.Fatalf("cycle %d: snapshot seq %d, reference %d", cycle, snap.Snapshot, ref.seq)
			}
		}

		for i := 0; i < preSnapPushes; i++ {
			doPush()
		}
		if withSnap && point == faultPostAck {
			snapOK()
			for i := 0; i < postSnapPushes; i++ {
				doPush()
			}
		} else if point == faultPostAck {
			// Crash already armed within the preSnap pushes.
		} else {
			if withSnap {
				snapOK()
				for i := 0; i < postSnapPushes; i++ {
					doPush()
				}
			}
			// The crashing rotation: the request dies with the server. The
			// attempt consumes a sequence number (cut before crash) but
			// publishes nothing.
			postJSONNoFatal(p.url+"/v1/summaries/net/snapshot", "application/json", nil, nil)
			ref.snapshot(false)
		}
		p.waitExit(t, fault.ExitCode)

		// Restart clean over the same directory and verify.
		p2 := startTortureServer(t, bin, dir)
		p2.waitReady(t)
		ref.recover()
		replayed := ref.pendingKeys()

		// A couple of post-recovery pushes prove the recovered pipeline
		// accepts new work before the verifying snapshot.
		extra := int64(0)
		for i := 0; i < 2; i++ {
			n := 5 + int(rng.Uint64()%20)
			coords, weights := genKeys(n, keySeed)
			keySeed++
			if pr, ok := pushFrame(t, p2.url, coords, weights); !ok || pr.Pushed != n {
				t.Fatalf("cycle %d: post-recovery push failed (%+v)\n%s", cycle, pr, p2.dumpLogs())
			}
			ref.push(coords, weights)
			extra += int64(n)
			totalAcked += int64(n)
		}
		verifyRecovered(t, p2, ref, replayed+extra)
		p2.sigterm(t)
		// The next cycle's server is a restart too: it rebuilds from the
		// verify snapshot and an empty WAL tail, so the reference must
		// discard its builder the same way (a graceful restart is just a
		// crash with nothing pending).
		ref.recover()
	}
	t.Logf("torture: %d cycles survived, %d keys acknowledged, final seq %d", cycles, totalAcked, ref.seq)
}

// TestCrashpointTable runs one deterministic cycle per crashpoint — the
// smallest repro of each failure mode, so a regression names its crashpoint
// instead of surfacing as a flaky torture run.
func TestCrashpointTable(t *testing.T) {
	bin := buildTortureServer(t)
	for _, tc := range []struct {
		point string
		// snapFirst publishes a snapshot before the crash, so recovery
		// exercises base+replay merge rather than replay-only.
		snapFirst bool
	}{
		{faultPostAck, false},
		{faultPostAck, true},
		{faultPreRotate, false},
		{faultPreRotate, true},
		{faultMidRename, false},
		{faultMidRename, true},
	} {
		name := tc.point
		if tc.snapFirst {
			name += "-with-base"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ref := newTortureRef(t)
			hit := 1
			if tc.snapFirst && tc.point != faultPostAck {
				hit = 2
			}
			if tc.point == faultPostAck {
				hit = 2 // second acknowledged push dies
				if tc.snapFirst {
					hit = 3
				}
			}
			p := startTortureServer(t, bin, dir, fmt.Sprintf("SASFAULT=%s:%d", tc.point, hit))
			p.waitReady(t)

			push := func(n int, seed uint64) {
				coords, weights := genKeys(n, seed)
				pushFrame(t, p.url, coords, weights)
				ref.push(coords, weights)
			}
			push(40, 1)
			if tc.snapFirst {
				var snap struct {
					Snapshot uint64 `json:"snapshot"`
				}
				if code := postJSONNoFatal(p.url+"/v1/summaries/net/snapshot", "application/json", nil, &snap); code != http.StatusOK {
					t.Fatalf("snapshot status %d\n%s", code, p.dumpLogs())
				}
				ref.snapshot(true)
				push(60, 2)
			}
			push(30, 3)
			if tc.point != faultPostAck {
				postJSONNoFatal(p.url+"/v1/summaries/net/snapshot", "application/json", nil, nil)
				ref.snapshot(false)
			}
			p.waitExit(t, fault.ExitCode)

			p2 := startTortureServer(t, bin, dir)
			p2.waitReady(t)
			ref.recover()
			verifyRecovered(t, p2, ref, ref.pendingKeys())
			p2.sigterm(t)
		})
	}
}
