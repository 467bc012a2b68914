package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

func TestReadResponseBodies(t *testing.T) {
	cases := []struct {
		name, text, body string
		status           int
		keep             bool
	}{
		{"length", "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Type: text/plain\r\n\r\nhello", "hello", 200, true},
		{"chunked", "HTTP/1.1 429 Too Many Requests\r\ntransfer-encoding: chunked\r\n\r\n3\r\nabc\r\n2;x=y\r\nde\r\n0\r\nTrailer: t\r\n\r\n", "abcde", 429, true},
		{"close", "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok", "ok", 200, false},
	}
	for _, c := range cases {
		var body []byte
		st, keep, err := readResponse(bufio.NewReader(strings.NewReader(c.text)), &body)
		if err != nil || st != c.status || keep != c.keep || string(body) != c.body {
			t.Errorf("%s: got %d %v %q %v, want %d %v %q", c.name, st, keep, body, err, c.status, c.keep, c.body)
		}
	}
	for _, bad := range []string{
		"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort",
		"HTTP/1.1 200 OK\r\n\r\nno length",
		"HTTP/1.1 2x0 OK\r\nContent-Length: 0\r\n\r\n",
	} {
		var body []byte
		if _, _, err := readResponse(bufio.NewReader(strings.NewReader(bad)), &body); err == nil {
			t.Errorf("malformed response %q was accepted", bad)
		}
	}
}

func TestConnKeepsAliveAgainstNetHTTP(t *testing.T) {
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		if r.URL.Path == "/big" {
			// Larger than net/http buffers before it falls back to chunking.
			w.Write([]byte(strings.Repeat("x", 10000)))
			return
		}
		w.Write([]byte(r.Method + " " + r.URL.RequestURI() + " " + r.Header.Get("Content-Type") + " " + string(b)))
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	c := (&run{}).conn(srv.URL)
	defer c.close()
	for i := 0; i < 3; i++ {
		st, b, err := c.do(http.MethodPost, "/p?x=1", "application/x-test", []byte("body"))
		if err != nil || st != 200 || string(b) != "POST /p?x=1 application/x-test body" {
			t.Fatalf("POST: %d %q %v", st, b, err)
		}
		st, b, err = c.do(http.MethodGet, "/big", "", nil)
		if err != nil || st != 200 || len(b) != 10000 {
			t.Fatalf("GET /big: %d, %d bytes, %v", st, len(b), err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("%d connections for 6 requests, want 1", n)
	}
}
