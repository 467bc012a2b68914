package main

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestIngestHTTPHonorsRetryAfter pins the client half of the back-pressure
// contract: a 429 with Retry-After makes the client sleep the advertised
// (positive) time and resend the same frame, never spinning — and a 429
// with an adversarial hint falls back to the jittered backoff, whose
// first wait is at least one second (wire.Backoff's d/2 jitter floor on
// the 2s base).
func TestIngestHTTPHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0") // adversarial zero hint
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"pushed":10}`))
	}))
	defer srv.Close()

	var slept []time.Duration
	sleepFn = func(d time.Duration) { slept = append(slept, d) }
	defer func() { sleepFn = time.Sleep }()

	gen := newKeyGen(1, 2, 8, 10)
	if err := runIngest(srv.URL, "flows", 10, gen); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d posts, want 3 (2 rejected + 1 accepted)", got)
	}
	if len(slept) != 2 {
		t.Fatalf("client slept %d times, want 2", len(slept))
	}
	for _, d := range slept {
		if d < time.Second {
			t.Fatalf("backoff %v below the 1s floor — hot loop", d)
		}
	}
}

// TestIngestRequiresHTTPURL: -ingest takes only an http:// or https://
// base URL. Anything else, such as a bare host:port or unix:/path, is a
// usage error: the built command exits 2 with a message naming the flag,
// before it generates a key or opens a connection.
func TestIngestRequiresHTTPURL(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "sasbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, addr := range []string{"127.0.0.1:9401", "unix:/tmp/sas-ingest.sock", "ftp://127.0.0.1:9401"} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, "-ingest", addr, "-ingest-keys", "10")
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-ingest %s: %v, want exit status 2 (stderr %q)", addr, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "-ingest") {
			t.Errorf("-ingest %s: message %q does not name -ingest", addr, stderr.String())
		}
	}
}

func TestParseConcs(t *testing.T) {
	got, err := parseConcs("4, 16")
	if err != nil || len(got) != 2 || got[0] != 4 || got[1] != 16 {
		t.Fatalf("parseConcs(4, 16) = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "4,x", "-1"} {
		if _, err := parseConcs(bad); err == nil {
			t.Errorf("parseConcs(%q) accepted", bad)
		}
	}
}

// TestRunLoadAgainstFakeServer drives the whole -load path against a stub
// sasserve: metadata fetch, mix construction inside the advertised domain,
// concurrent replay, and the JSON report.
func TestRunLoadAgainstFakeServer(t *testing.T) {
	var estimates atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/summaries/net", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"name":"net","axes":[{"domain_size":1024},{"domain_size":1024}]}`))
	})
	mux.HandleFunc("GET /v1/summaries/net/estimate", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("range") == "" {
			http.Error(w, "missing range", http.StatusBadRequest)
			return
		}
		estimates.Add(1)
		w.Write([]byte(`{"estimates":[1],"total":1}`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	out := filepath.Join(t.TempDir(), "load.json")
	err := runLoad(srv.URL, "net", "area,hot,hot-nocache", "2,4", 30*time.Millisecond, out, 5)
	if err != nil {
		t.Fatal(err)
	}
	if estimates.Load() == 0 {
		t.Fatal("no estimate requests reached the server")
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"mix": "area"`, `"mix": "hot-nocache"`, `"concurrency": 4`, `"qps"`, `"p999_ns"`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("report missing %s:\n%s", want, raw)
		}
	}
	// Unknown mixes and unreachable summaries fail loudly.
	if err := runLoad(srv.URL, "net", "bogus", "2", time.Millisecond, "", 5); err == nil {
		t.Fatal("unknown mix accepted")
	}
	if err := runLoad(srv.URL, "nope", "area", "2", time.Millisecond, "", 5); err == nil {
		t.Fatal("missing summary accepted")
	}
}
