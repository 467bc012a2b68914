// Command sasserve is the summary-serving daemon: a read/write node for
// range-query summaries. On the read side it serves summaries of any
// backend kind — structure-aware VarOpt samples, 2-D q-digests, Haar
// wavelet synopses, or dyadic Count-Sketches — behind one Estimator
// contract (internal/backend), answering estimate, quantile,
// representative-key, heavy-hitter, and metadata queries over HTTP as
// JSON. Sample summaries load from serialized SAS2 files (written by
// sassample -dump or Summary.WriteTo); any backend kind can instead be
// built at startup from a CSV of weighted keys via a -backend recipe. On
// the write side, live summaries (-live) accept weighted keys over HTTP
// into a bounded-memory streaming Builder and publish immutable snapshots
// of the accumulated stream — on a rotation interval, on demand, and as a
// final flush on shutdown — so the full lifecycle (ingest → snapshot →
// query) runs in one process: build and merge summaries anywhere, or
// stream the keys straight at the serving node.
//
// Usage:
//
//	sasserve [-addr :8337] [flags] [name=path ...]
//
//	-backend name=kind[:k=v;k=v...]
//	                       build recipe for a named summary. kind is one of
//	                       sample, qdigest, wavelet, sketch; parameters
//	                       (';'-separated) are size, seed, rows, method,
//	                       buffer, and axes (e.g. axes=bittrie:20,bittrie:20).
//	                       With axes, the name's path is a CSV of
//	                       "c0,c1,...,weight" rows and the summary is built
//	                       from it at load time; a bare "sample" recipe (no
//	                       axes) reads a serialized .sas file, the default.
//	-cache-size n          per-summary answer-cache capacity, in cached
//	                       responses (default 4096, 0 disables). Answers are
//	                       keyed on the literal range text and valid for one
//	                       serving epoch; a reload or snapshot rotation swaps
//	                       the entry and drops its cache wholesale, so a
//	                       stale answer can never be served. A single-range
//	                       GET may append &cache=off to bypass the cache.
//	-live name=axes        writable summary over the given key domain
//	                       (axes like "bittrie:32,bittrie:32"; repeatable)
//	-live-size n           sample size of each live snapshot (default 1000)
//	-live-buffer n         live builder reservoir in keys (0 = 5×size)
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
//	                       restores snapshot-only durability. On startup the
//	                       WAL tail is replayed on top of the recovered
//	                       snapshot, so no acknowledged key is lost.
//	-wal-sync-every d      background fsync period under -wal-sync=interval
//	                       (default 100ms; the power-loss exposure window)
//	-wal-segment-bytes n   WAL segment roll threshold (default 64MiB)
//
// A bare path names its summary after the file ("data/net.sas" → "net").
// SIGHUP re-reads every source in place (hot reload): each summary swaps
// atomically to its new version — CSV-built backends are rebuilt — and a
// source that fails to load keeps serving its previous version. Live
// snapshots swap the same way, so every estimate comes from a fully-formed
// summary. SIGTERM/SIGINT shut down gracefully: in-flight requests drain,
// live summaries flush a final snapshot when -snapshot-dir is set, and the
// process exits 0.
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
// Every backend answers estimate, total, and quantile; representatives and
// heavy hitters need real keys behind the summary, so they are sample-only
// (other backends answer 501). Sample-backed estimate and total responses
// carry confidence-interval fields (the paper's exponential tail bounds at
// 95%); deterministic backends have no comparable per-estimate guarantee
// and omit them.
//
// The serving summaries are immutable and shared: every request goroutine
// queries the same compiled structure with no locks on the hot path, so
// read throughput scales with cores; writes decode and validate on the
// request goroutine and contend only on their live summary's bounded
// queue. Sample estimates are bit-for-bit identical to the in-process
// linear Summary methods.
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

	"structaware/internal/backend"
	"structaware/internal/cliutil"
	"structaware/internal/structure"
	"structaware/internal/wal"
)

// shutdownGrace bounds how long a graceful shutdown waits for in-flight
// requests before giving up and closing their connections.
const shutdownGrace = 10 * time.Second

func main() {
	var liveSpecs, backendSpecs []string
	var (
		addr         = flag.String("addr", ":8337", "HTTP listen address")
		cacheSize    = flag.Int("cache-size", 4096, "per-summary answer-cache capacity in responses (0 disables)")
		liveSize     = flag.Int("live-size", 1000, "target sample size of live-summary snapshots")
		liveBuffer   = flag.Int("live-buffer", 0, "live builder reservoir in keys (0 = 5×live-size)")
		liveSeed     = flag.Uint64("live-seed", 1, "construction seed for live summaries")
		ingestQueue  = flag.Int("ingest-queue", 0, "pending-batch queue cap per live summary (0 = default)")
		snapInterval = flag.Duration("snapshot-interval", 0, "automatic live snapshot period (0 = manual POST .../snapshot only)")
		snapDir      = flag.String("snapshot-dir", "", "directory persisting live snapshots (newest recovered on startup)")
		walSyncFlag  = flag.String("wal-sync", "interval", "ingest write-ahead-log sync policy: always, interval, or off (effective with -snapshot-dir)")
		walEvery     = flag.Duration("wal-sync-every", 0, "background WAL fsync period under -wal-sync=interval (0 = 100ms)")
		walSegBytes  = flag.Int64("wal-segment-bytes", 0, "WAL segment roll threshold in bytes (0 = 64MiB)")
	)
	flag.Func("live", "live summary as name=axes (axes like bittrie:32,bittrie:32; repeatable)", func(v string) error {
		liveSpecs = append(liveSpecs, v)
		return nil
	})
	flag.Func("backend", "build recipe as name=kind[:k=v;k=v...] (kinds: sample, qdigest, wavelet, sketch; repeatable)", func(v string) error {
		backendSpecs = append(backendSpecs, v)
		return nil
	})
	flag.Parse()
	tool := cliutil.New("sasserve")
	tool.CheckUsage(cliutil.FirstError(
		cliutil.Required("-addr", *addr),
		cliutil.NonNegative("-cache-size", *cacheSize),
		cliutil.Positive("-live-size", *liveSize),
		cliutil.NonNegative("-live-buffer", *liveBuffer),
		cliutil.NonNegative("-ingest-queue", *ingestQueue),
		cliutil.NonNegativeDuration("-snapshot-interval", *snapInterval),
		cliutil.NonNegativeDuration("-wal-sync-every", *walEvery),
	))
	walPolicy, err := wal.ParsePolicy(*walSyncFlag)
	if err != nil {
		tool.Usagef("-wal-sync: %v", err)
	}
	if *walSegBytes < 0 {
		tool.Usagef("-wal-segment-bytes must be >= 0, got %d", *walSegBytes)
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
	// Attach -backend recipes to the sources they name. A recipe must name
	// a positional source (-live summaries always build samples), and a
	// recipe for any kind but a .sas-loading sample needs axes to interpret
	// the CSV.
	recipes, err := cliutil.ParseAssignments(backendSpecs)
	tool.CheckUsage(err)
	cfgs := make(map[string]*backend.Config, len(recipes))
	for _, rc := range recipes {
		cfg, err := backend.ParseSpec(rc.Value)
		if err != nil {
			tool.Usagef("-backend %s=%s: %v", rc.Name, rc.Value, err)
		}
		if _, dup := cfgs[rc.Name]; dup {
			tool.Usagef("-backend %q given twice", rc.Name)
		}
		if cfg.Kind != backend.KindSample && cfg.Axes == nil {
			tool.Usagef("-backend %s=%s: kind %s needs axes=... to build from a CSV", rc.Name, rc.Value, cfg.Kind)
		}
		cfgs[rc.Name] = &cfg
	}
	sources := make([]serveSource, len(assigns))
	named := make(map[string]bool, len(assigns))
	for i, a := range assigns {
		sources[i] = serveSource{name: a.Name, path: a.Value, cfg: cfgs[a.Name]}
		named[a.Name] = true
	}
	for _, rc := range recipes {
		if !named[rc.Name] {
			tool.Usagef("-backend %q names no summary (give its data as %s=path)", rc.Name, rc.Name)
		}
	}

	logger := log.New(os.Stderr, "sasserve: ", log.LstdFlags)
	st := newStore(sources, *cacheSize, logger.Printf)

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
		size:        *liveSize,
		buffer:      *liveBuffer,
		seed:        *liveSeed,
		dir:         *snapDir,
		interval:    *snapInterval,
		queue:       *ingestQueue,
		walSync:     walPolicy,
		walEvery:    *walEvery,
		walSegBytes: *walSegBytes,
	}
	tool.Check(st.initLive(lives, lc))
	for _, src := range sources {
		e, _ := st.get(src.name)
		logger.Printf("serving %q from %s (%s, %d elements, %d dims)",
			src.name, src.path, e.be.Kind, e.be.Size(), len(e.be.Axes))
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
