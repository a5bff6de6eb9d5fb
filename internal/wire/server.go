package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"confbench/internal/api"
	"confbench/internal/faultplane"
	"confbench/internal/obs"
)

// maxBatch bounds the frames one connection has accepted but not yet
// written, hence the largest write batch, and is also how many handler
// goroutines a served connection keeps resident.
const maxBatch = 16

// wireMetrics caches the per-connection-plane obs instruments so the
// hot path increments pre-resolved counters instead of re-hashing
// label sets per frame.
type wireMetrics struct {
	frames   [api.FrameError + 1]*obs.Counter
	bytesIn  *obs.Counter
	bytesOut *obs.Counter
	batch    *obs.Histogram
}

func newWireMetrics(reg *obs.Registry) *wireMetrics {
	if reg == nil {
		return nil
	}
	m := &wireMetrics{
		bytesIn:  reg.Counter("confbench_wire_bytes_total", "dir", "in"),
		bytesOut: reg.Counter("confbench_wire_bytes_total", "dir", "out"),
		batch:    reg.HistogramWith("confbench_wire_batch_size", []float64{1, 2, 4, 8, 16}),
	}
	for t := api.FrameInvokeReq; t <= api.FrameError; t++ {
		m.frames[t] = reg.Counter("confbench_wire_frames_total", "type", t.String())
	}
	return m
}

func (m *wireMetrics) countIn(n int) {
	if m != nil {
		m.bytesIn.Add(uint64(n))
	}
}

// frameWriter is a connection's write side, shared by every sender on
// it. There is no writer goroutine: a sender appends its frame to the
// pending buffer, and the first to find no flush under way writes
// everything pending in one syscall, again while more arrived during
// the write. A lone sender writes from its own goroutine; concurrent
// senders coalesce exactly as far as they overlap. Frames are counted
// on the send side only, so a frame crossing one hop increments
// confbench_wire_frames_total exactly once per registry.
type frameWriter struct {
	conn  net.Conn
	m     *wireMetrics
	slots chan struct{} // one token per frame accepted but not yet written

	mu       sync.Mutex
	pending  []byte // encoded frames awaiting the flusher; pooled
	frames   int    // frames in pending
	flushing bool
	err      error // first write error; the connection is closed
}

func newFrameWriter(conn net.Conn, m *wireMetrics) *frameWriter {
	return &frameWriter{conn: conn, m: m, slots: make(chan struct{}, maxBatch)}
}

// send queues one frame and returns once it is written or another
// sender's flush has taken charge of it. It owns payload (pooled) on
// every path. A sender waiting for room behind a stalled peer gives up
// with ctx; the flusher itself sits in conn.Write until the peer reads
// or the connection is closed. A write error poisons the connection:
// it is closed, so the read side notices and fails whatever is
// pending, and every later send fails at once.
func (w *frameWriter) send(ctx context.Context, t Type, corr uint64, payload []byte) error {
	defer PutBuf(payload)
	select {
	case w.slots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	w.mu.Lock()
	if err := w.err; err != nil {
		w.mu.Unlock()
		w.release(1)
		return err
	}
	if w.pending == nil {
		w.pending = GetBuf(0)
	}
	w.pending = AppendFrame(w.pending, t, corr, payload)
	w.frames++
	if w.m != nil {
		w.m.frames[t].Inc()
	}
	if w.flushing {
		w.mu.Unlock()
		return nil
	}
	w.flushing = true
	for {
		buf, n := w.pending, w.frames
		w.pending, w.frames = nil, 0
		w.mu.Unlock()
		// Counted before the write: a peer that has the frame never
		// reads counters that lack it.
		if w.m != nil {
			w.m.bytesOut.Add(uint64(len(buf)))
			w.m.batch.Observe(time.Duration(n) * time.Second)
		}
		_, err := w.conn.Write(buf)
		w.release(n)
		PutBuf(buf)
		w.mu.Lock()
		if err != nil {
			w.err = err
			n = w.frames // queued behind the failed write, and lost with it
			w.mu.Unlock()
			w.release(n)
			w.conn.Close()
			return err
		}
		if w.pending == nil {
			w.flushing = false
			w.mu.Unlock()
			return nil
		}
	}
}

func (w *frameWriter) release(n int) {
	for ; n > 0; n-- {
		<-w.slots
	}
}

// Handler processes one decoded request frame and returns the
// response frame type and payload (built into a pooled buffer, e.g.
// AppendInvokeResponse(GetBuf(0), ...)). The request payload is only
// valid for the duration of the call — decode, don't retain. An error
// wrapping ErrSever drops the connection with no response (the wire
// analogue of panic(http.ErrAbortHandler)); any other error is sent to
// the peer as a api.FrameError frame carrying its cberr classification.
type Handler func(ctx context.Context, t Type, payload []byte) (Type, []byte, error)

// ServerConfig configures a wire front door.
type ServerConfig struct {
	Handler Handler
	// Faults evaluates the wire.frame point per received frame; nil
	// disables injection.
	Faults *faultplane.Plane
	// Target attributes injected faults (host name for history).
	Target faultplane.Target
	// Obs registers the wire frame/byte/batch metrics; nil disables.
	Obs *obs.Registry
}

// Sniffer wraps a listener and splits incoming connections by
// protocol: a two-byte peek of the wire magic routes the connection to
// the binary serving loop, anything else (an HTTP method line is
// printable ASCII) is replayed to the HTTP server through Accept().
// Sniffer is itself a net.Listener, so http.Server.Serve consumes the
// HTTP side unchanged and Shutdown's listener close tears both down.
type Sniffer struct {
	ln     net.Listener
	cfg    ServerConfig
	m      *wireMetrics
	httpCh chan net.Conn
	done   chan struct{}
	once   sync.Once

	mu        sync.Mutex
	acceptErr error
	conns     map[net.Conn]struct{}
}

// NewSniffer starts sniffing ln. The returned Sniffer must be passed
// to an HTTP server (or have Accept drained) or HTTP connections will
// stall.
func NewSniffer(ln net.Listener, cfg ServerConfig) *Sniffer {
	s := &Sniffer{
		ln:     ln,
		cfg:    cfg,
		m:      newWireMetrics(cfg.Obs),
		httpCh: make(chan net.Conn),
		done:   make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
	go s.acceptLoop()
	return s
}

func (s *Sniffer) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			s.acceptErr = err
			s.mu.Unlock()
			s.once.Do(func() { close(s.done) })
			return
		}
		go s.sniff(conn)
	}
}

// sniff peeks the first two bytes under a deadline so a connected but
// silent peer cannot pin the goroutine forever.
func (s *Sniffer) sniff(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 32<<10)
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	peek, err := br.Peek(2)
	_ = conn.SetReadDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return
	}
	bc := &bufConn{r: br, Conn: conn}
	if peek[0] == Magic0 && peek[1] == Magic1 {
		if !s.track(bc) {
			conn.Close()
			return
		}
		defer s.untrack(bc)
		s.serveWire(bc)
		return
	}
	select {
	case s.httpCh <- bc:
	case <-s.done:
		conn.Close()
	}
}

func (s *Sniffer) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.done:
		return false
	default:
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Sniffer) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Accept implements net.Listener, yielding only HTTP connections.
func (s *Sniffer) Accept() (net.Conn, error) {
	select {
	case c := <-s.httpCh:
		return c, nil
	case <-s.done:
		s.mu.Lock()
		err := s.acceptErr
		s.mu.Unlock()
		if err == nil {
			err = net.ErrClosed
		}
		return nil, err
	}
}

// Close implements net.Listener: stops the accept loop and severs
// every live wire connection so serving goroutines drain.
func (s *Sniffer) Close() error {
	s.once.Do(func() { close(s.done) })
	err := s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	return err
}

// Addr implements net.Listener.
func (s *Sniffer) Addr() net.Addr { return s.ln.Addr() }

// serveWire runs the binary serving loop on one connection: read a
// frame, evaluate the wire.frame fault point, hand the payload to a
// handler goroutine that writes its own response, so responses
// complete out of order, matched by correlation ID. A parked resident
// worker takes the frame when one is idle; otherwise a goroutine is
// started, and the first maxBatch of those stay resident for the
// connection's life, keeping their grown stacks instead of regrowing
// one per frame.
func (s *Sniffer) serveWire(conn net.Conn) {
	defer conn.Close()
	w := newFrameWriter(conn, s.m)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	handle := func(f inFrame) {
		rt, rp, herr := s.cfg.Handler(ctx, f.t, f.payload)
		PutBuf(f.payload)
		if herr != nil {
			if errors.Is(herr, ErrSever) {
				PutBuf(rp)
				conn.Close() // the read loop notices and winds the connection down
				return
			}
			rt, rp = api.FrameError, AppendError(GetBuf(0), herr)
		}
		_ = w.send(ctx, rt, f.corr, rp) // a failed write already closed conn
	}
	work := make(chan inFrame) // unbuffered: a send succeeds only into a parked worker
	resident := 0
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(work)
	hdr := make([]byte, HeaderSize)
	for {
		h, payload, err := readFrame(conn, hdr)
		if err != nil {
			return
		}
		s.m.countIn(HeaderSize + len(payload))
		if d := s.cfg.Faults.Evaluate(faultplane.PointWireFrame, s.cfg.Target); d.Inject {
			switch d.Kind {
			case faultplane.KindLatency, faultplane.KindSlowIO:
				time.Sleep(d.Latency)
			case faultplane.KindError:
				PutBuf(payload)
				if w.send(ctx, api.FrameError, h.Corr, AppendError(GetBuf(0), d.Err)) != nil {
					return
				}
				continue
			default: // drop, crash: sever with no response
				PutBuf(payload)
				return
			}
		}
		f := inFrame{t: h.Type, corr: h.Corr, payload: payload}
		select {
		case work <- f:
			continue
		default:
		}
		stay := resident < maxBatch
		if stay {
			resident++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			handle(f)
			if stay {
				for f := range work {
					handle(f)
				}
			}
		}()
	}
}

// bufConn replays bytes buffered during the protocol peek ahead of the
// raw connection.
type bufConn struct {
	r *bufio.Reader
	net.Conn
}

func (c *bufConn) Read(p []byte) (int, error) { return c.r.Read(p) }

var _ net.Listener = (*Sniffer)(nil)

// errString formats a peer address into wire errors consistently.
func errString(addr string, err error) error {
	return fmt.Errorf("wire: peer %s: %w", addr, err)
}
