package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/faas"
)

// gate is a handler whose behaviour the function name picks: "hold-*"
// reports on entered and waits for a release, "sever" drops the
// connection, anything else answers at once.
type gate struct {
	entered chan string
	release chan struct{}
}

func newGate() *gate {
	return &gate{entered: make(chan string, 4*maxBatch), release: make(chan struct{})}
}

func (g *gate) handle(ctx context.Context, ft Type, payload []byte) (Type, []byte, error) {
	req, err := DecodeGuestInvoke(payload)
	if err != nil {
		return 0, nil, err
	}
	name := req.Function.Name
	switch {
	case name == "sever":
		return 0, nil, fmt.Errorf("%w: asked to", ErrSever)
	case strings.HasPrefix(name, "hold-"):
		g.entered <- name
		<-g.release
	}
	b, err := AppendInvokeResponse(GetBuf(0), &api.InvokeResponse{Output: name + " ran"})
	return api.FrameInvokeResp, b, err
}

// listenGate serves g on a fresh sniffer (no HTTP side).
func listenGate(t *testing.T, g *gate) (*Sniffer, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSniffer(&ownListener{Listener: ln}, ServerConfig{Handler: g.handle})
	t.Cleanup(func() { s.Close() })
	return s, ln.Addr().String()
}

// invokeNamed round-trips one guest invoke and checks the answer is
// the one for this request.
func invokeNamed(ctx context.Context, tr *Binary, addr, name string) error {
	var resp api.InvokeResponse
	req := &api.GuestInvokeRequest{Function: faas.Function{Name: name}}
	if err := tr.RoundTrip(ctx, addr, api.GuestV1Invoke, req, &resp); err != nil {
		return err
	}
	if want := name + " ran"; resp.Output != want {
		return fmt.Errorf("cross-talk: %q answered with %q", name, resp.Output)
	}
	return nil
}

// goroutinesIn counts the live goroutines whose stack mentions frame.
func goroutinesIn(frame string) int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, frame) {
			n++
		}
	}
	return n
}

// ownListener records the goroutine that accepts from it: the accept
// loop of the one sniffer it was handed to.
type ownListener struct {
	net.Listener
	acceptor atomic.Value // string: the accepting goroutine's id
}

func (l *ownListener) Accept() (net.Conn, error) {
	buf := make([]byte, 64)
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf[:runtime.Stack(buf, false)]), "goroutine "), " ")
	l.acceptor.Store(id)
	return l.Listener.Accept()
}

// createdBy returns the id of the goroutine that started the one whose
// stack trace is g, if fn started it.
func createdBy(g, fn string) (string, bool) {
	marker := "created by confbench/internal/wire.(*Sniffer)." + fn + " in goroutine "
	i := strings.Index(g, marker)
	if i < 0 {
		return "", false
	}
	id, _, _ := strings.Cut(g[i+len(marker):], "\n")
	return id, true
}

// handlersPerConn counts the goroutines serveWire started — resident
// workers and overflow one-shots, parked or running — on the
// connections s accepted, by the serving loop that started them: one
// entry per connection. Those of other sniffers still winding down are
// not counted.
func handlersPerConn(s *Sniffer) map[string]int {
	acceptor, _ := s.ln.(*ownListener).acceptor.Load().(string)
	buf := make([]byte, 1<<20)
	stacks := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
	// The goroutines serving a connection s accepted: those its accept
	// loop started.
	conns := make(map[string]bool)
	for _, g := range stacks {
		if by, ok := createdBy(g, "acceptLoop"); ok && by == acceptor {
			id, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
			conns[id] = true
		}
	}
	per := make(map[string]int)
	for _, g := range stacks {
		if loop, ok := createdBy(g, "serveWire"); ok && conns[loop] {
			per[loop]++
		}
	}
	return per
}

// settle polls until cond holds, failing with every stack if it never does.
func settle(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; !cond(); i++ {
		if i > 500 {
			buf := make([]byte, 1<<20)
			t.Fatalf("%s\n%s", what, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWorkerNoHeadOfLineBlocking: a blocked handler never delays
// another frame on the same connection, whether the frames run on
// resident workers (few in flight) or on overflow goroutines (more
// held handlers than the pool's connections keep resident, so every
// resident worker is stuck and the quick call must be an overflow
// one). After the burst every connection keeps exactly maxBatch
// workers, and a second burst reuses them instead of adding more.
func TestWorkerNoHeadOfLineBlocking(t *testing.T) {
	g := newGate()
	s, addr := listenGate(t, g)
	tr := NewBinary(nil)
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	quick := func(name string) {
		t.Helper()
		if err := invokeNamed(ctx, tr, addr, name); err != nil {
			t.Fatalf("%s behind held handlers: %v", name, err)
		}
	}
	quick("warm") // the first frame starts the first resident worker
	per := handlersPerConn(s)
	if len(per) != 1 {
		t.Fatalf("handler goroutines per connection after one frame: %v, want one connection", per)
	}
	for _, n := range per {
		if n != 1 {
			t.Fatalf("%d handler goroutines after one frame, want 1 resident", n)
		}
	}

	burst := func(round string, held int) {
		t.Helper()
		errs := make(chan error, held)
		for i := 0; i < held; i++ {
			name := fmt.Sprintf("hold-%s-%d", round, i)
			go func() { errs <- invokeNamed(ctx, tr, addr, name) }()
			if i == 0 {
				// One handler held, every other worker free or not yet started.
				<-g.entered
				quick("quick-resident-" + round)
			}
		}
		for i := 1; i < held; i++ {
			<-g.entered
		}
		quick("quick-overflow-" + round)
		for i := 0; i < held; i++ {
			g.release <- struct{}{}
		}
		for i := 0; i < held; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("held call: %v", err)
			}
		}
	}
	everyConnKeepsMaxBatch := func() bool {
		per := handlersPerConn(s)
		for _, n := range per {
			if n != maxBatch {
				return false
			}
		}
		return len(per) == maxConnsPerPeer
	}
	for _, round := range []string{"a", "b"} {
		burst(round, maxConnsPerPeer*maxBatch+4)
		settle(t, "burst "+round+": want exactly maxBatch resident workers left on each connection",
			everyConnKeepsMaxBatch)
	}
}

// TestWorkerSeverFromResident: ErrSever from a handler running on a
// resident worker (the connection's second frame, taken by the worker
// the first one left parked or by a second resident) drops the
// connection with no response, and the next call redials.
func TestWorkerSeverFromResident(t *testing.T) {
	g := newGate()
	_, addr := listenGate(t, g)
	tr := NewBinary(nil)
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if err := invokeNamed(ctx, tr, addr, "warm"); err != nil {
		t.Fatal(err)
	}
	err := invokeNamed(ctx, tr, addr, "sever")
	if cberr.CodeOf(err) != cberr.CodeUnavailable || !cberr.Retryable(err) {
		t.Fatalf("severed call returned %v, want a retryable unavailable", err)
	}
	if err := invokeNamed(ctx, tr, addr, "after"); err != nil {
		t.Fatalf("no redial after a sever: %v", err)
	}
}

// TestLifecycleCloseLeavesNoGoroutines: closing either end first, with
// workers parked or with handlers in flight, brings the goroutine
// count back to where it was before the listener and the transport
// existed, and the calls in flight fail retryable.
func TestLifecycleCloseLeavesNoGoroutines(t *testing.T) {
	for _, first := range []string{"Sniffer.Close", "Binary.Close"} {
		for _, inFlight := range []int{0, maxBatch + 4} {
			t.Run(fmt.Sprintf("%s with %d in flight", first, inFlight), func(t *testing.T) {
				before := runtime.NumGoroutine()
				g := newGate()
				s, addr := listenGate(t, g)
				tr := NewBinary(nil)
				ctx := context.Background()
				// Leave workers parked: a concurrent burst first.
				var wg sync.WaitGroup
				for i := 0; i < 4; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if err := invokeNamed(ctx, tr, addr, "warm"); err != nil {
							t.Error(err)
						}
					}()
				}
				wg.Wait()
				errs := make(chan error, inFlight)
				for i := 0; i < inFlight; i++ {
					name := fmt.Sprintf("hold-%d", i)
					go func() { errs <- invokeNamed(ctx, tr, addr, name) }()
				}
				for i := 0; i < inFlight; i++ {
					<-g.entered
				}
				if first == "Sniffer.Close" {
					s.Close()
				} else {
					tr.Close()
				}
				for i := 0; i < inFlight; i++ {
					if err := <-errs; !cberr.Retryable(err) {
						t.Errorf("call in flight across %s: %v, want retryable", first, err)
					}
				}
				close(g.release) // the held handlers finish into a dead connection
				s.Close()
				tr.Close()
				settle(t, "goroutines outlived both Closes", func() bool {
					return runtime.NumGoroutine() <= before &&
						goroutinesIn("wire.(*Sniffer)") == 0 && goroutinesIn("wire.(*mconn)") == 0
				})
			})
		}
	}
}

// TestWaiterNotReusedAfterCancel: a waiter channel abandoned on cancel
// may still receive its late response, so it must never serve a later
// call. First deterministically — cancel while the handler is held,
// then let the late response arrive — and then as a storm of calls
// whose deadlines land around the moment the response does; any
// recycled channel shows up as an answer to the wrong request.
func TestWaiterNotReusedAfterCancel(t *testing.T) {
	g := newGate()
	_, addr := listenGate(t, g)
	tr := NewBinary(nil)
	defer tr.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- invokeNamed(ctx, tr, addr, "hold-late") }()
	<-g.entered
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled call returned %v", err)
	}
	g.release <- struct{}{} // the response now arrives for nobody
	for i := 0; i < 50; i++ {
		if err := invokeNamed(context.Background(), tr, addr, fmt.Sprintf("after-late-%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	const callers, calls = 4, 300
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				// Deadlines sweep from "before the write" to "after the reply".
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%40)*10*time.Microsecond)
				err := invokeNamed(ctx, tr, addr, fmt.Sprintf("storm-%d-%d", c, i))
				cancel()
				if err != nil && !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("caller %d call %d: %v", c, i, err)
				}
			}
		}(c)
	}
	wg.Wait()
	if err := invokeNamed(context.Background(), tr, addr, "after-storm"); err != nil {
		t.Fatal(err)
	}
}
