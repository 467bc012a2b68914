package main

// server.go builds cmd/sasserve from the checkout under test, runs it as a
// child process on a snapshot directory of the run's own, and holds the
// HTTP calls the load generator makes to it.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"structaware/internal/wire"
)

// buildServer compiles cmd/sasserve of the checkout at root into dir.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "sasserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sasserve")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build sasserve: %w", err)
	}
	return bin, nil
}

// serverProc is one running sasserve.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// serverArgs is the server command of every server workload; extra holds
// the workload's additional flags. Every other flag keeps its default.
func serverArgs(addr, dir string, extra ...string) []string {
	args := []string{"-addr", addr, "-live", summary + "=bittrie:20,bittrie:20", "-live-size", "4096", "-snapshot-dir", dir}
	return append(args, extra...)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer starts sasserve on dir and waits until /readyz answers 200.
// It returns the time from exec to ready.
func startServer(bin, dir string, log io.Writer, extra ...string) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, serverArgs(addr, dir, extra...)...)
	cmd.Stdout, cmd.Stderr = log, log
	// Should the benchmark itself be killed, the kernel ends the server
	// too instead of leaving it running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start sasserve: %w", err)
	}
	s := &serverProc{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("sasserve exited before ready: %v", s.err)
		case <-time.After(500 * time.Microsecond):
		}
		if time.Since(t0) > 90*time.Second {
			s.kill()
			return nil, 0, errors.New("sasserve not ready after 90s")
		}
	}
}

func (s *serverProc) pid() int { return s.cmd.Process.Pid }

// kill ends the server with SIGKILL, as a crash would, and waits for it.
// Signaling a server that has already exited fails harmlessly.
func (s *serverProc) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.exited
}

// conn is one keep-alive HTTP/1.1 connection to the server; the load
// generator never shares a connection between goroutines. A request is
// written with one call and its response read on the calling goroutine:
// net/http's client hands every request to two goroutines of its own per
// connection, which cost the generator more CPU than the server spent
// answering, on the CPUs the two share, and made the query rate swing
// with how the scheduler placed them.
type conn struct {
	addr string // host:port
	nc   net.Conn
	rd   *bufio.Reader
	hdr  []byte // the request head being written
	body []byte // the last response's body
	// In a traced run, every request is a span of rec, numbered by reqs.
	rec  *recorder
	reqs *atomic.Int64
}

// conn opens a connection to the server at base, traced when the run is.
// The connection is dialed by its first request.
func (r *run) conn(base string) *conn {
	c := &conn{addr: strings.TrimPrefix(base, "http://")}
	if r.client != nil {
		c.rec, c.reqs = r.client.recorder(), &r.client.reqs
	}
	return c
}

// spanName names the client span of a request by its endpoint.
func spanName(path string) string {
	switch {
	case strings.HasSuffix(path, "/keys"):
		return "http.push"
	case strings.HasSuffix(path, "/snapshot"):
		return "http.snapshot"
	case strings.Contains(path, "/estimate"):
		return "http.estimate"
	}
	return "http.meta"
}

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// do sends one request and returns the status and the body, which stays
// valid until the next call on c. After an error the connection is closed
// and the next request dials a new one.
func (c *conn) do(method, path, ctype string, body []byte) (int, []byte, error) {
	if c.rec != nil {
		defer c.rec.end(c.rec.begin(spanName(path), c.reqs.Add(1)))
	}
	if c.nc == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.nc = nc
		if c.rd == nil {
			c.rd = bufio.NewReaderSize(nc, 64<<10)
		} else {
			c.rd.Reset(nc)
		}
	}
	st, keep, err := c.roundTrip(method, path, ctype, body)
	if err != nil || !keep {
		c.close()
	}
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return st, c.body, nil
}

// roundTrip writes one request and reads its response into c.body. keep
// reports whether the server keeps the connection open.
func (c *conn) roundTrip(method, path, ctype string, body []byte) (status int, keep bool, err error) {
	h := append(c.hdr[:0], method...)
	h = append(h, ' ')
	h = append(h, path...)
	h = append(h, " HTTP/1.1\r\nHost: "...)
	h = append(h, c.addr...)
	h = append(h, "\r\n"...)
	if body != nil {
		if ctype != "" {
			h = append(h, "Content-Type: "...)
			h = append(h, ctype...)
			h = append(h, "\r\n"...)
		}
		h = append(h, "Content-Length: "...)
		h = strconv.AppendInt(h, int64(len(body)), 10)
		h = append(h, "\r\n"...)
	}
	h = append(h, "\r\n"...)
	c.hdr = h
	bufs := net.Buffers{h}
	if len(body) > 0 {
		bufs = append(bufs, body)
	}
	if _, err := bufs.WriteTo(c.nc); err != nil {
		return 0, false, err
	}
	return readResponse(c.rd, &c.body)
}

// readResponse reads one HTTP/1.1 response from rd, its body into *body
// (reusing its storage). It understands what a Go net/http server sends
// to a GET or POST: a Content-Length or chunked body, and
// "Connection: close".
func readResponse(rd *bufio.Reader, body *[]byte) (status int, keep bool, err error) {
	line, err := rd.ReadSlice('\n')
	if err != nil {
		return 0, false, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) || line[8] != ' ' {
		return 0, false, fmt.Errorf("malformed status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, false, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked, keep := -1, false, true
	for {
		line, err := rd.ReadSlice('\n')
		if err != nil {
			return 0, false, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 0, false, fmt.Errorf("malformed header line %q", line)
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil || length < 0 {
				return 0, false, fmt.Errorf("malformed Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		case bytes.EqualFold(k, []byte("Connection")):
			keep = !bytes.EqualFold(v, []byte("close"))
		}
	}
	b := (*body)[:0]
	switch {
	case chunked:
		for {
			line, err := rd.ReadSlice('\n')
			if err != nil {
				return 0, false, err
			}
			size, _, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(";"))
			n, err := strconv.ParseUint(string(size), 16, 31)
			if err != nil {
				return 0, false, fmt.Errorf("malformed chunk size %q", line)
			}
			if n == 0 {
				break
			}
			b = slices.Grow(b, int(n))
			if _, err := io.ReadFull(rd, b[len(b):len(b)+int(n)]); err != nil {
				return 0, false, err
			}
			b = b[:len(b)+int(n)]
			if _, err := rd.Discard(2); err != nil { // the chunk's CRLF
				return 0, false, err
			}
		}
		// Trailers, up to the empty line.
		for {
			line, err := rd.ReadSlice('\n')
			if err != nil {
				return 0, false, err
			}
			if len(bytes.TrimRight(line, "\r\n")) == 0 {
				break
			}
		}
	case length >= 0:
		b = slices.Grow(b, length)[:length]
		if _, err := io.ReadFull(rd, b); err != nil {
			return 0, false, err
		}
	default:
		return 0, false, errors.New("response has neither a Content-Length nor a chunked body")
	}
	*body = b
	return status, keep, nil
}

// push POSTs one frame and returns the status.
func (c *conn) push(frame []byte) (int, error) {
	st, _, err := c.do(http.MethodPost, "/v1/summaries/"+summary+"/keys", wire.ContentType, frame)
	return st, err
}

// snapResp is the answer to a forced snapshot.
type snapResp struct {
	Snapshot      uint64  `json:"snapshot"`
	Size          int     `json:"size"`
	Pushed        int64   `json:"pushed"`
	TotalEstimate float64 `json:"total_estimate"`
	Path          string  `json:"path"`
}

// snapshot forces a rotation and returns the new epoch's description.
func (c *conn) snapshot() (snapResp, error) {
	var r snapResp
	err := c.getJSON(http.MethodPost, "/v1/summaries/"+summary+"/snapshot", &r)
	return r, err
}

// metaResp is the part of GET /v1/summaries/{name} the benchmark reads.
type metaResp struct {
	Epoch       uint64 `json:"epoch"`
	Pushed      int64  `json:"pushed"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
}

func (c *conn) meta() (metaResp, error) {
	var r metaResp
	err := c.getJSON(http.MethodGet, "/v1/summaries/"+summary, &r)
	return r, err
}

// estResp is a single-range estimate answer.
type estResp struct {
	Epoch     uint64    `json:"epoch"`
	Estimates []float64 `json:"estimates"`
	Bounds    []float64 `json:"bounds"`
}

func (c *conn) getJSON(method, path string, v any) error {
	st, body, err := c.do(method, path, "", nil)
	if err != nil {
		return err
	}
	if st != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, st, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}
