// Command sasserve is the summary-serving daemon: a read/write node for
// structure-aware VarOpt samples. On the read side it serves sample
// summaries loaded from serialized SAS2 files (written by sassample -dump
// or Summary.WriteTo), answering estimate, quantile, representative-key,
// heavy-hitter, and metadata queries over HTTP as JSON. On the write side,
// live summaries (-live) accept weighted keys over HTTP into a
// bounded-memory streaming Builder and publish immutable snapshots of the
// accumulated stream — on a rotation interval, on demand, and as a final
// flush on shutdown — so the full lifecycle (ingest → snapshot → query)
// runs in one process: build and merge summaries anywhere, or stream the
// keys straight at the serving node.
//
// Usage:
//
//	sasserve [-addr :8337] [flags] [name=path.sas ...]
//
//	-live name=axes        writable summary over the given key domain
//	                       (axes like "bittrie:32,bittrie:32"; repeatable)
//	-live-size n           sample size of each live snapshot (default 1000);
//	                       each live builder holds a 5×n-key reservoir
//	-live-seed n           construction seed for live summaries
//	-ingest-queue n        ingest queue depth per live summary, in batches
//	                       (0 = default); a push against a full queue
//	                       answers 429 + Retry-After
//	-snapshot-interval d   publish dirty live summaries every d (0 = manual)
//	-snapshot-dir dir      persist snapshots as SAS2 files; the newest one
//	                       is recovered on startup and merged with
//	                       post-restart keys, so estimates stay unbiased
//	                       across restarts
//	-wal-sync policy       write-ahead-log sync policy for acknowledged
//	                       ingest batches (requires -snapshot-dir):
//	                       "interval" (default) writes each batch before
//	                       the ack and fsyncs in the background, so acks
//	                       survive kill -9/OOM/panic; "always" fsyncs before
//	                       every ack, so acks survive power loss; "off"
//	                       restores snapshot-only durability. Under
//	                       "interval" the log fsyncs every 100ms, the
//	                       power-loss exposure window, and rolls 64MiB
//	                       segments. On startup the WAL tail is replayed on
//	                       top of the recovered snapshot, so no acknowledged
//	                       key is lost.
//
// A bare path names its summary after the file ("data/net.sas" → "net").
// SIGHUP re-reads every file in place (hot reload): each summary swaps
// atomically to its new version, and a file that fails to load keeps
// serving its previous version. Live snapshots swap the same way, so every
// estimate comes from a fully-formed summary. SIGTERM/SIGINT shut down
// gracefully: in-flight requests drain, live summaries flush a final
// snapshot when -snapshot-dir is set, and the process exits 0.
//
// Endpoints (all JSON; ranges use the "lo:hi,lo:hi" box syntax, one
// inclusive interval per axis):
//
//	GET  /healthz
//	GET  /readyz                         503 until snapshot recovery + WAL replay finish
//	GET  /v1/summaries
//	GET  /v1/summaries/{name}
//	GET  /v1/summaries/{name}/total
//	GET  /v1/summaries/{name}/estimate?range=0:1023,0:1023[&range=...]
//	POST /v1/summaries/{name}/estimate   {"ranges": ["0:1023,0:1023", ...]}
//	GET  /v1/summaries/{name}/quantile?axis=0&phi=0.5[&range=...]
//	GET  /v1/summaries/{name}/representatives?range=...&limit=10
//	GET  /v1/summaries/{name}/heavyhitters?range=...&k=10
//	POST /v1/summaries/{name}/keys       {"coords": [[...],...], "weights": [...]}
//	                                     (or a binary application/x-sas-frame body)
//	POST /v1/summaries/{name}/snapshot
//
// Every summary is a sample, so every endpoint answers from its retained
// keys, and estimate and total responses carry the paper's exponential
// tail bounds at 95% as confidence-interval fields.
//
// Single-range estimates are answered through a per-summary answer cache
// of 4096 response bodies, keyed on the literal range text and valid for
// one serving epoch: a reload or snapshot rotation swaps the entry and
// drops its cache wholesale, so a stale answer can never be served. A
// single-range GET may append &cache=off to bypass the cache; the bytes
// are the same either way.
//
// The serving summaries are immutable and shared: every request goroutine
// queries the same compiled structure with no locks on the hot path, so
// read throughput scales with cores; writes decode and validate on the
// request goroutine and contend only on their live summary's bounded
// queue. Estimates are bit-for-bit identical to the in-process linear
// Summary methods.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"structaware/internal/cliutil"
	"structaware/internal/structure"
	"structaware/internal/wal"
)

// shutdownGrace bounds how long a graceful shutdown waits for in-flight
// requests before giving up and closing their connections.
const shutdownGrace = 10 * time.Second

func main() {
	var liveSpecs []string
	var (
		addr         = flag.String("addr", ":8337", "HTTP listen address")
		liveSize     = flag.Int("live-size", 1000, "target sample size of live-summary snapshots")
		liveSeed     = flag.Uint64("live-seed", 1, "construction seed for live summaries")
		ingestQueue  = flag.Int("ingest-queue", 0, "pending-batch queue cap per live summary (0 = default)")
		snapInterval = flag.Duration("snapshot-interval", 0, "automatic live snapshot period (0 = manual POST .../snapshot only)")
		snapDir      = flag.String("snapshot-dir", "", "directory persisting live snapshots (newest recovered on startup)")
		walSyncFlag  = flag.String("wal-sync", "interval", "ingest write-ahead-log sync policy: always, interval, or off (effective with -snapshot-dir)")
	)
	flag.Func("live", "live summary as name=axes (axes like bittrie:32,bittrie:32; repeatable)", func(v string) error {
		liveSpecs = append(liveSpecs, v)
		return nil
	})
	flag.Parse()
	tool := cliutil.New("sasserve")
	tool.CheckUsage(cliutil.FirstError(
		cliutil.Required("-addr", *addr),
		cliutil.Positive("-live-size", *liveSize),
		cliutil.NonNegative("-ingest-queue", *ingestQueue),
		cliutil.NonNegativeDuration("-snapshot-interval", *snapInterval),
	))
	walPolicy, err := wal.ParsePolicy(*walSyncFlag)
	if err != nil {
		tool.Usagef("-wal-sync: %v", err)
	}
	if *snapDir == "" {
		// The WAL lives in -snapshot-dir and only makes sense alongside the
		// snapshots it is truncated against. An explicit non-off policy
		// without a directory is a misconfiguration worth refusing; the
		// unset default just degrades to the no-persistence behavior.
		explicit := false
		flag.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "wal-sync" })
		if explicit && walPolicy != wal.PolicyOff {
			tool.Usagef("-wal-sync=%s requires -snapshot-dir", walPolicy)
		}
		walPolicy = wal.PolicyOff
	}
	if flag.NArg() == 0 && len(liveSpecs) == 0 {
		tool.Usagef("at least one summary is required: sasserve [flags] name=path.sas ... or -live name=axes")
	}
	if len(liveSpecs) == 0 && (*snapDir != "" || *snapInterval != 0) {
		tool.Usagef("-snapshot-dir and -snapshot-interval require at least one -live summary")
	}
	assigns, err := cliutil.ParseAssignments(flag.Args())
	tool.CheckUsage(err)
	lives, err := cliutil.ParseAssignments(liveSpecs)
	tool.CheckUsage(err)
	for _, lv := range lives {
		// A malformed axis spec is a flag mistake (usage, exit 2), not a
		// runtime failure; initLive re-parses the validated spec.
		if _, err := structure.ParseAxisSpec(lv.Value); err != nil {
			tool.Usagef("-live %s=%s: %v", lv.Name, lv.Value, err)
		}
	}
	for _, src := range assigns {
		for _, lv := range lives {
			if src.Name == lv.Name {
				tool.Usagef("summary %q is both file-backed and -live", src.Name)
			}
		}
	}
	sources := make([]serveSource, len(assigns))
	for i, a := range assigns {
		sources[i] = serveSource{name: a.Name, path: a.Value}
	}

	logger := log.New(os.Stderr, "sasserve: ", log.LstdFlags)
	st := newStore(sources, logger.Printf)

	// SIGTERM/SIGINT start a graceful shutdown; SIGHUP hot-reloads files.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Bind and serve before recovery runs: /healthz and /readyz answer
	// immediately (503 from /readyz until recovery finishes), so
	// orchestrators can watch a restarting node replay its WAL instead of
	// timing out on a dead port.
	ln, err := net.Listen("tcp", *addr)
	tool.Check(err)
	logger.Printf("listening on %s", ln.Addr())
	srv := &http.Server{
		Handler: st.handler(),
		// A long-running daemon must not let slow or idle clients pin
		// goroutines forever.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- serveUntilShutdown(ctx, srv, ln, logger.Printf) }()

	tool.Check(st.loadAll())
	lc := liveConfig{
		size:     *liveSize,
		seed:     *liveSeed,
		dir:      *snapDir,
		interval: *snapInterval,
		queue:    *ingestQueue,
		walSync:  walPolicy,
	}
	tool.Check(st.initLive(lives, lc))
	for _, src := range sources {
		e, _ := st.get(src.name)
		logger.Printf("serving %q from %s (%d keys, %d dims)",
			src.name, src.path, e.idx.Size(), len(e.idx.Summary().Axes))
	}
	for _, lv := range lives {
		logger.Printf("serving live %q over %s (snapshot size %d, wal %s)",
			lv.Name, lv.Value, *liveSize, effectivePolicy(lc))
	}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			logger.Printf("SIGHUP: reloading %d summaries", len(sources))
			st.reload()
		}
	}()
	if *snapInterval > 0 {
		go st.rotationLoop(ctx, *snapInterval)
	}

	st.ready.Store(true)
	logger.Printf("ready")

	serveErr := <-serveDone
	// Stop the write plane in dependency order: the HTTP server first (no
	// new batches), then the ingest workers (drain every accepted batch
	// into the builders), so the final flush below covers every
	// acknowledged key. This runs even when the drain timed out or the
	// server failed — acknowledged keys must never be dropped on the way
	// out, and a push still in flight gets a 503. The WALs close last: the
	// final flush's cut and truncation are ordinary rotations against the
	// open logs.
	st.closeLive()
	if *snapDir != "" {
		// Flush keys that arrived since the last rotation so a restart
		// recovers them; clean summaries are skipped.
		st.rotateAll(false)
	}
	st.closeWALs()
	tool.Check(serveErr)
	logger.Printf("shutdown complete")
}

// effectivePolicy names the WAL policy a live summary actually runs under.
func effectivePolicy(lc liveConfig) string {
	if !lc.walEnabled() {
		return "off"
	}
	return lc.walSync.String()
}

// serveUntilShutdown serves on ln until ctx is cancelled (a shutdown
// signal) or the server fails. On cancellation it drains in-flight
// requests — up to shutdownGrace — and returns nil: a clean shutdown is
// not an error, and in particular http.ErrServerClosed never escapes as
// one (it is how net/http reports that Shutdown was requested).
func serveUntilShutdown(ctx context.Context, srv *http.Server, ln net.Listener, logf func(format string, args ...any)) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		logf("shutdown signal received, draining in-flight requests")
		shctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(shctx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
