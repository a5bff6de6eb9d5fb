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

// Batching knobs. A write batch is bounded by count and by a
// sub-millisecond linger timer; the linger only arms when the
// non-blocking drain already found a second frame, so a serial caller
// (one invoke in flight) never pays it.
const (
	maxBatch    = 16
	batchLinger = 200 * time.Microsecond
)

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

// outFrame is one frame queued for the write side. The payload buffer
// is pooled; writeLoop recycles it after the write.
type outFrame struct {
	t       Type
	corr    uint64
	payload []byte
}

// writeLoop owns a connection's write side: it serializes frames from
// ch, batching Nagle-style — block for the first frame, drain whatever
// else is already queued (up to maxBatch), and only when that drain
// proves concurrent traffic exists linger up to batchLinger for more —
// then flushes the whole batch in one syscall. Frames are counted on
// the send side only, so a frame crossing one hop increments
// confbench_wire_frames_total exactly once per registry.
func writeLoop(conn net.Conn, ch <-chan outFrame, dead <-chan struct{}, m *wireMetrics) {
	bw := bufio.NewWriterSize(conn, 32<<10)
	var batch [maxBatch]outFrame
	// One header scratch per connection: bw.Write keeps escape
	// analysis from stack-allocating it, so hoist it out of the loop.
	hdrBuf := make([]byte, 0, HeaderSize)
	for {
		var n int
		select {
		case batch[0] = <-ch:
			n = 1
		case <-dead:
			return
		}
	drain:
		for n < maxBatch {
			select {
			case batch[n] = <-ch:
				n++
			default:
				break drain
			}
		}
		if n > 1 && n < maxBatch {
			timer := time.NewTimer(batchLinger)
		linger:
			for n < maxBatch {
				select {
				case batch[n] = <-ch:
					n++
				case <-timer.C:
					break linger
				case <-dead:
					timer.Stop()
					for i := 0; i < n; i++ {
						PutBuf(batch[i].payload)
					}
					return
				}
			}
			timer.Stop()
		}
		wrote := 0
		failed := false
		for i := 0; i < n; i++ {
			f := batch[i]
			if !failed {
				hdr := AppendHeader(hdrBuf[:0], f.t, f.corr, len(f.payload))
				_, err1 := bw.Write(hdr)
				_, err2 := bw.Write(f.payload)
				if err1 != nil || err2 != nil {
					failed = true
				} else {
					wrote += HeaderSize + len(f.payload)
					if m != nil {
						m.frames[f.t].Inc()
					}
				}
			}
			PutBuf(f.payload)
		}
		if !failed {
			failed = bw.Flush() != nil
		}
		if m != nil {
			m.bytesOut.Add(uint64(wrote))
			m.batch.Observe(time.Duration(n) * time.Second)
		}
		if failed {
			// Poison the connection; the read side unblocks, notices,
			// and runs the kill path (closing dead, failing pending).
			conn.Close()
			return
		}
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
// frame, evaluate the wire.frame fault point, hand the payload to the
// handler in its own goroutine (responses complete out of order and
// rejoin through the shared write loop keyed by correlation ID).
func (s *Sniffer) serveWire(conn net.Conn) {
	ch := make(chan outFrame, maxBatch)
	dead := make(chan struct{})
	var killOnce sync.Once
	kill := func() {
		killOnce.Do(func() {
			close(dead)
			conn.Close()
		})
	}
	defer kill()
	go writeLoop(conn, ch, dead, s.m)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		h, payload, err := ReadFrame(conn)
		if err != nil {
			return
		}
		s.m.countIn(HeaderSize + len(payload))
		if d := s.cfg.Faults.Evaluate(faultplane.PointWireFrame, s.cfg.Target); d.Inject {
			switch d.Kind {
			case faultplane.KindLatency, faultplane.KindSlowIO:
				time.Sleep(d.Latency)
			case faultplane.KindError:
				errPayload := AppendError(GetBuf(0), d.Err)
				PutBuf(payload)
				select {
				case ch <- outFrame{t: api.FrameError, corr: h.Corr, payload: errPayload}:
				case <-dead:
					PutBuf(errPayload)
				}
				continue
			default: // drop, crash: sever with no response
				PutBuf(payload)
				return
			}
		}
		wg.Add(1)
		go func(h Header, payload []byte) {
			defer wg.Done()
			rt, rp, herr := s.cfg.Handler(ctx, h.Type, payload)
			PutBuf(payload)
			if herr != nil {
				if errors.Is(herr, ErrSever) {
					PutBuf(rp)
					kill()
					return
				}
				rt, rp = api.FrameError, AppendError(GetBuf(0), herr)
			}
			select {
			case ch <- outFrame{t: rt, corr: h.Corr, payload: rp}:
			case <-dead:
				PutBuf(rp)
			}
		}(h, payload)
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
