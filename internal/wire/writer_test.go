package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/obs"
)

// countingReader counts the bytes the peer actually took off the wire.
type countingReader struct {
	r io.Reader
	n uint64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += uint64(n)
	return n, err
}

// framesSent sums confbench_wire_frames_total over every frame type.
func framesSent(m *wireMetrics) uint64 {
	var n uint64
	for t := api.FrameInvokeReq; t <= api.FrameError; t++ {
		n += m.frames[t].Value()
	}
	return n
}

// batchedFrames is the number of frames the batch-size histogram saw:
// each flush observes its frame count as that many seconds.
func batchedFrames(m *wireMetrics) uint64 { return uint64(m.batch.Sum() / time.Second) }

// testPayload builds sender s's i-th payload: the pair, then a filler
// of a length and content derived from it, so a torn or interleaved
// frame cannot pass for an intact one.
func testPayload(s, i int) []byte {
	p := GetBuf(0)
	p = binary.BigEndian.AppendUint32(p, uint32(s))
	p = binary.BigEndian.AppendUint32(p, uint32(i))
	for k := 0; k < (s*31+i*7)%200; k++ {
		p = append(p, byte(s+i+k))
	}
	return p
}

// TestWriterConcurrentSenders is the write side's property test: N
// senders × M frames through one frameWriter over a synchronous pipe
// (every flush blocks until the peer reads, so senders overlap and
// coalesce). Every frame arrives exactly once and intact, each
// sender's frames arrive in its own order, and the send-side metrics
// agree with each other and with what the peer read.
func TestWriterConcurrentSenders(t *testing.T) {
	const senders, perSender = 8, 200
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	m := newWireMetrics(obs.New())
	w := newFrameWriter(c1, m)

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				ft := api.FrameInvokeReq
				if i%2 == 1 {
					ft = api.FrameInvokeResp
				}
				if err := w.send(context.Background(), ft, uint64(s)<<32|uint64(i), testPayload(s, i)); err != nil {
					t.Errorf("sender %d frame %d: %v", s, i, err)
					return
				}
			}
		}(s)
	}

	cr := &countingReader{r: c2}
	br := bufio.NewReader(cr)
	var next [senders]int
	for got := 0; got < senders*perSender; got++ {
		h, payload, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", got, err)
		}
		s, i := int(h.Corr>>32), int(uint32(h.Corr))
		if s >= senders || i != next[s] {
			t.Fatalf("sender %d: got frame %d, want %d (lost, duplicated or reordered)", s, i, next[s])
		}
		next[s]++
		want := testPayload(s, i)
		if string(payload) != string(want) {
			t.Fatalf("sender %d frame %d arrived torn", s, i)
		}
		if wantType := api.FrameInvokeReq + Type(i%2); h.Type != wantType {
			t.Fatalf("sender %d frame %d: type %s, want %s", s, i, h.Type, wantType)
		}
		PutBuf(want)
		PutBuf(payload)
	}
	wg.Wait()

	if got := framesSent(m); got != senders*perSender {
		t.Errorf("confbench_wire_frames_total = %d, want %d", got, senders*perSender)
	}
	if got := batchedFrames(m); got != senders*perSender {
		t.Errorf("batch-size observations sum to %d frames, want %d", got, senders*perSender)
	}
	if got := m.bytesOut.Value(); got != cr.n {
		t.Errorf("confbench_wire_bytes_total{dir=out} = %d, peer read %d", got, cr.n)
	}
	if len(w.slots) != 0 {
		t.Errorf("%d slots still held with nothing pending", len(w.slots))
	}
	t.Logf("%d frames in %d writes", senders*perSender, m.batch.Count())
}

// pipeConn builds an mconn over a synchronous pipe and returns it with
// the peer's end. The peer decides when a write completes: until it
// reads, the flusher stays in conn.Write.
func pipeConn(t *testing.T) (*mconn, net.Conn, *wireMetrics) {
	t.Helper()
	c1, c2 := net.Pipe()
	m := newWireMetrics(obs.New())
	mc := newMconn("pipe", c1, m)
	t.Cleanup(func() {
		mc.kill(errors.New("test over"))
		c2.Close()
	})
	return mc, c2, m
}

// waitFlushing blocks until a sender has taken the pending buffer and
// is (about to be) inside conn.Write.
func waitFlushing(t *testing.T, w *frameWriter) {
	t.Helper()
	settle(t, "no sender became the flusher", func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.flushing && w.pending == nil
	})
}

// echoPeer answers every request frame on c with an empty health
// response carrying the same correlation ID, until c fails.
func echoPeer(c net.Conn) {
	br := bufio.NewReader(c)
	for {
		h, payload, err := ReadFrame(br)
		if err != nil {
			return
		}
		PutBuf(payload)
		if _, err := c.Write(AppendFrame(nil, api.FrameHealthResp, h.Corr, nil)); err != nil {
			return
		}
	}
}

// TestWriterSlotBoundAndCancel stalls the peer. The first caller
// becomes the flusher and sits in conn.Write; the next maxBatch-1 are
// accepted behind it without blocking; one more waits for a slot and
// must come back with its context's error, classified as today. Once
// the peer drains, the stalled frames went out as one frame and one
// coalesced batch, no slot leaked, and maxBatch more sends go through.
func TestWriterSlotBoundAndCancel(t *testing.T) {
	mc, peer, m := pipeConn(t)
	results := make(chan error, 2*maxBatch)
	call := func() {
		_, rp, err := mc.roundTrip(context.Background(), api.FrameHealthReq, GetBuf(0))
		PutBuf(rp)
		results <- err
	}
	go call()
	waitFlushing(t, mc.w)
	for i := 1; i < maxBatch; i++ {
		go call()
	}
	settle(t, "the stalled flush did not accept maxBatch-1 frames behind it", func() bool {
		mc.w.mu.Lock()
		defer mc.w.mu.Unlock()
		return mc.w.frames == maxBatch-1
	})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := mc.roundTrip(ctx, api.FrameHealthReq, GetBuf(0))
	if !errors.Is(err, context.DeadlineExceeded) || cberr.CodeOf(err) != cberr.CodeDeadline {
		t.Fatalf("sender waiting for a slot returned %v, want a classified deadline error", err)
	}
	if len(mc.w.slots) != maxBatch {
		t.Fatalf("canceled sender changed the slot count to %d", len(mc.w.slots))
	}

	go echoPeer(peer)
	for i := 0; i < maxBatch; i++ {
		if err := <-results; err != nil {
			t.Fatalf("stalled call %d: %v", i, err)
		}
	}
	// The stall made the schedule deterministic: the flusher's own frame
	// alone, then everything that queued behind it in one write.
	if writes, frames := m.batch.Count(), batchedFrames(m); writes != 2 || frames != maxBatch {
		t.Errorf("%d frames in %d writes, want %d in 2", frames, writes, maxBatch)
	}
	if len(mc.w.slots) != 0 {
		t.Fatalf("%d slots leaked after the peer drained", len(mc.w.slots))
	}
	for i := 0; i < maxBatch; i++ {
		go call()
	}
	for i := 0; i < maxBatch; i++ {
		if err := <-results; err != nil {
			t.Fatalf("call %d after the drain: %v", i, err)
		}
	}
	mc.mu.Lock()
	left := len(mc.pending)
	mc.mu.Unlock()
	if left != 0 {
		t.Errorf("%d pending entries left behind", left)
	}
}

// failConn fails writes on demand and counts what reaches the socket.
type failConn struct {
	net.Conn
	fail   atomic.Bool
	writes atomic.Int32
}

func (c *failConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	if c.fail.Load() {
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(p)
}

// TestWriterWriteErrorPoisons: a failed write kills the connection
// once. The call that hit it and every call still waiting for a
// response fail with a retryable unavailable; later sends fail fast,
// without touching the socket.
func TestWriterWriteErrorPoisons(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	fc := &failConn{Conn: c1}
	mc := newMconn("pipe", fc, nil)
	var peerRead atomic.Int32
	go func() { // a peer that reads and never answers
		br := bufio.NewReader(c2)
		for {
			_, payload, err := ReadFrame(br)
			if err != nil {
				return
			}
			PutBuf(payload)
			peerRead.Add(1)
		}
	}()

	const waiting = 3
	results := make(chan error, waiting)
	for i := 0; i < waiting; i++ {
		go func() {
			_, _, err := mc.roundTrip(context.Background(), api.FrameHealthReq, GetBuf(0))
			results <- err
		}()
	}
	settle(t, "the calls never reached the wait", func() bool {
		return peerRead.Load() == waiting && len(mc.w.slots) == 0
	})

	wantUnavailable := func(what string, err error) {
		t.Helper()
		if cberr.CodeOf(err) != cberr.CodeUnavailable || !cberr.Retryable(err) {
			t.Errorf("%s: %v, want a retryable unavailable", what, err)
		}
	}
	fc.fail.Store(true)
	_, _, err := mc.roundTrip(context.Background(), api.FrameHealthReq, GetBuf(0))
	wantUnavailable("the call whose write failed", err)
	for i := 0; i < waiting; i++ {
		wantUnavailable("a call waiting on the dead connection", <-results)
	}
	select {
	case <-mc.dead:
	default:
		t.Fatal("connection not marked dead")
	}

	before := fc.writes.Load()
	_, _, err = mc.roundTrip(context.Background(), api.FrameHealthReq, GetBuf(0))
	wantUnavailable("a call after the failure", err)
	if serr := mc.w.send(context.Background(), api.FrameHealthReq, 99, GetBuf(0)); serr == nil {
		t.Error("a send on the poisoned writer succeeded")
	}
	if got := fc.writes.Load(); got != before {
		t.Errorf("poisoned connection wrote %d more times", got-before)
	}
	if len(mc.w.slots) != 0 {
		t.Errorf("%d slots held by failed sends", len(mc.w.slots))
	}
}
