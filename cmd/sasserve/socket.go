package main

// socket.go is the raw ingest listener (-ingest-listen): a TCP or
// unix-domain socket accepting the internal/wire stream protocol — one
// hello record naming a live summary, then concatenated binary frames —
// and feeding the same validated ingest queues as the HTTP path.
// Backpressure is the transport's own flow control: a frame destined for a
// full queue blocks the connection's read loop, the kernel receive window
// fills, and the sender's writes stall, so a slow server throttles its
// producers instead of buffering without bound. On a clean half-close the
// server quiesces the ingest queue and answers one wire.Stats JSON line,
// making the client's Close an end-to-end acknowledgement that every sent
// key is in a builder.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"structaware/internal/wire"
)

// ingestIdleTimeout bounds how long a connection may sit idle between the
// dial and its hello, or between frames, before the server drops it — a
// long-running daemon must not let dead peers pin goroutines.
const ingestIdleTimeout = 2 * time.Minute

// failDrainBytes / failDrainTimeout bound the post-error input drain (see
// ingestServer.fail): enough to swallow the frames a streaming client had
// in flight when the error was detected, small enough that a hostile peer
// cannot pin the connection goroutine.
const (
	failDrainBytes   = 4 << 20
	failDrainTimeout = 10 * time.Second
)

// ingestServer owns the raw ingest listener and its connections.
type ingestServer struct {
	st   *store
	ln   net.Listener
	logf func(format string, args ...any)

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// listenIngest opens the raw ingest socket (see wire.SplitAddr for the
// address syntax) and starts its accept loop.
func listenIngest(st *store, addr string, logf func(format string, args ...any)) (*ingestServer, error) {
	network, address := wire.SplitAddr(addr)
	ln, err := net.Listen(network, address)
	if err != nil {
		return nil, err
	}
	is := &ingestServer{st: st, ln: ln, logf: logf, conns: make(map[net.Conn]struct{})}
	is.wg.Add(1)
	go is.acceptLoop()
	return is, nil
}

func (is *ingestServer) addr() net.Addr { return is.ln.Addr() }

func (is *ingestServer) acceptLoop() {
	defer is.wg.Done()
	for {
		conn, err := is.ln.Accept()
		if err != nil {
			is.mu.Lock()
			closed := is.closed
			is.mu.Unlock()
			if !closed {
				is.logf("ingest accept: %v", err)
			}
			return
		}
		if !is.track(conn) {
			conn.Close()
			return
		}
		is.wg.Add(1)
		go func() {
			defer is.wg.Done()
			defer is.untrack(conn)
			is.serveConn(conn)
		}()
	}
}

func (is *ingestServer) track(conn net.Conn) bool {
	is.mu.Lock()
	defer is.mu.Unlock()
	if is.closed {
		return false
	}
	is.conns[conn] = struct{}{}
	return true
}

func (is *ingestServer) untrack(conn net.Conn) {
	conn.Close()
	is.mu.Lock()
	delete(is.conns, conn)
	is.mu.Unlock()
}

// close stops accepting, closes every live connection, and waits for the
// per-connection goroutines to finish. Called before closeLive so that no
// connection can race an enqueue against the queue shutdown.
func (is *ingestServer) close() {
	is.mu.Lock()
	if is.closed {
		is.mu.Unlock()
		is.wg.Wait()
		return
	}
	is.closed = true
	conns := make([]net.Conn, 0, len(is.conns))
	for c := range is.conns {
		conns = append(conns, c)
	}
	is.mu.Unlock()
	is.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	is.wg.Wait()
}

// serveConn runs one ingest stream: hello, frames until EOF, Stats ack.
// Any protocol or validation error ends the stream immediately with a
// Stats line carrying the error — nothing after a bad frame is ingested,
// and the counts report what was.
func (is *ingestServer) serveConn(conn net.Conn) {
	idle := func() { conn.SetReadDeadline(time.Now().Add(ingestIdleTimeout)) }
	idle()
	name, err := wire.ReadHello(conn)
	if err != nil {
		is.fail(conn, wire.Stats{Error: err.Error()})
		return
	}
	ls := is.st.live(name)
	if ls == nil {
		is.fail(conn, wire.Stats{Summary: name, Error: fmt.Sprintf("no live summary named %q", name)})
		return
	}
	st := wire.Stats{Summary: name}
	fr := wire.NewReader(bufio.NewReaderSize(conn, 1<<16), wire.Decoder{Dims: len(ls.axes), MaxRows: maxKeysPerPush})
	for {
		idle()
		batch := getBatch()
		err := fr.Next(&batch.Batch)
		if err == io.EOF {
			batch.release()
			break
		}
		if err != nil {
			batch.release()
			st.Error = fmt.Sprintf("frame %d: %v", st.Frames, err)
			is.fail(conn, st)
			return
		}
		if err := validateBatch(ls.axes, &batch.Batch); err != nil {
			batch.release()
			st.Error = fmt.Sprintf("frame %d: %v", st.Frames, err)
			is.fail(conn, st)
			return
		}
		rows := batch.Rows()
		// A full ingest queue blocks here — the transport's receive window
		// is the flow control; the idle deadline above still bounds a
		// peer that stalls without sending.
		if err := ls.enqueue(batch, true); err != nil {
			batch.release()
			st.Error = err.Error()
			is.fail(conn, st)
			return
		}
		st.Frames++
		st.Keys += int64(rows)
	}
	// Clean end of stream: flush the queue so the ack certifies that
	// every counted key has reached the builder.
	ls.quiesce()
	is.reply(conn, st)
}

// fail ends an errored stream: write the diagnostic Stats line, half-close
// the write side so the line is flushed behind a FIN, then discard a
// bounded amount of the input the peer still had in flight. A streaming
// client keeps sending frames until it sees our answer; closing with that
// data unread makes the kernel reset the connection, and the RST can
// destroy the just-written diagnostic before the peer reads it — the
// client would report "connection reset" instead of the server's error.
// The drain is bounded in both bytes and time, so a peer that never stops
// sending still gets cut off (and then a reset is exactly right).
func (is *ingestServer) fail(conn net.Conn, st wire.Stats) {
	is.reply(conn, st)
	if cw, ok := conn.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	conn.SetReadDeadline(time.Now().Add(failDrainTimeout))
	io.CopyN(io.Discard, conn, failDrainBytes)
}

// reply writes the end-of-stream Stats line, best effort (the peer may
// already be gone; its loss, the counts are theirs).
func (is *ingestServer) reply(conn net.Conn, st wire.Stats) {
	conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	b, err := json.Marshal(st)
	if err != nil {
		return
	}
	conn.Write(append(b, '\n'))
	if st.Error != "" {
		is.logf("ingest %s: %s", conn.RemoteAddr(), st.Error)
	}
}
