package api

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"confbench/internal/cberr"
)

// idleTo counts the idle connections the pool holds for c's server.
func idleTo(c *Client) int {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	return len(idle.conns[c.peer.key])
}

// countingServer is a test server that counts the connections it
// accepts and the requests it serves.
func countingServer(t *testing.T, h http.HandlerFunc) (srv *httptest.Server, conns, reqs *atomic.Int64) {
	t.Helper()
	conns, reqs = new(atomic.Int64), new(atomic.Int64)
	srv = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Add(1)
		h(w, r)
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, conns, reqs
}

func invokeOK(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, InvokeResponse{Output: "ok"})
}

// TestPoolPostSurvivesServerRestart: the server behind a pooled
// connection goes away and a new one listens on the same address. A
// POST with a single attempt must not be spent on the dead connection:
// it succeeds, and the new server sees it exactly once.
func TestPoolPostSurvivesServerRestart(t *testing.T) {
	first, _, _ := countingServer(t, invokeOK)
	addr := first.Listener.Addr().String()
	c, err := New(first.URL, WithRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Invoke(ctx, InvokeRequest{Function: "f"}); err != nil {
		t.Fatal(err)
	}
	if idleTo(c) != 1 {
		t.Fatalf("%d idle connections after one exchange, want 1", idleTo(c))
	}
	first.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var reqs atomic.Int64
	second := &httptest.Server{Listener: ln, Config: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Add(1)
		invokeOK(w, r)
	})}}
	second.Start()
	defer second.Close()
	if _, err := c.Invoke(ctx, InvokeRequest{Function: "f"}); err != nil {
		t.Fatalf("POST after the restart: %v", err)
	}
	if n := reqs.Load(); n != 1 {
		t.Errorf("the new server saw %d requests, want 1", n)
	}
}

// rawServer answers every connection with reply, written by hand, and
// then holds the connection open until the test ends.
func rawServer(t *testing.T, reply func(w *bufio.Writer)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	t.Cleanup(func() {
		close(done)
		_ = ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				if _, err := http.ReadRequest(bufio.NewReader(nc)); err != nil {
					return
				}
				w := bufio.NewWriter(nc)
				reply(w)
				_ = w.Flush()
				<-done
			}()
		}
	}()
	return "http://" + ln.Addr().String()
}

// TestPoolClosesInsteadOfPooling: a connection goes back to the pool
// only when its answer was read to the end and did not ask to close. An
// answer that asks to close, a body read only in part, and a deadline
// or a cancel in the middle of a body each close it; the last two read
// as the deadline and the cancel they are.
func TestPoolClosesInsteadOfPooling(t *testing.T) {
	halfBody := func(w *bufio.Writer) {
		fmt.Fprintf(w, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 64\r\n\r\n{\"output\":")
	}
	for _, tc := range []struct {
		name string
		url  func(t *testing.T) string
		call func(c *Client) error
		pool int
		code cberr.Code
	}{
		{"whole answer", func(t *testing.T) string {
			srv, _, _ := countingServer(t, invokeOK)
			return srv.URL
		}, nil, 1, ""},
		{"connection close", func(t *testing.T) string {
			srv, _, _ := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Connection", "close")
				invokeOK(w, r)
			})
			return srv.URL
		}, nil, 0, ""},
		{"partly read body", func(t *testing.T) string {
			return rawServer(t, func(w *bufio.Writer) {
				fmt.Fprintf(w, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", maxResponse+1)
				_, _ = w.Write(make([]byte, maxResponse+1))
			})
		}, nil, 0, ""},
		{"deadline in the body", func(t *testing.T) string { return rawServer(t, halfBody) }, func(c *Client) error {
			c.peer.timeout = 50 * time.Millisecond
			return c.Health(context.Background())
		}, 0, cberr.CodeDeadline},
		{"cancel in the body", func(t *testing.T) string { return rawServer(t, halfBody) }, func(c *Client) error {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(50*time.Millisecond, cancel)
			return c.Health(ctx)
		}, 0, cberr.CodeCanceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.url(t), WithRetries(1))
			if err != nil {
				t.Fatal(err)
			}
			call := tc.call
			if call == nil {
				call = func(c *Client) error {
					_, err := c.Invoke(context.Background(), InvokeRequest{Function: "f"})
					return err
				}
			}
			err = call(c)
			if tc.pool == 1 && err != nil {
				t.Fatal(err)
			}
			if tc.code != "" && cberr.CodeOf(err) != tc.code {
				t.Errorf("err = %v, want code %s", err, tc.code)
			}
			if n := idleTo(c); n != tc.pool {
				t.Errorf("%d idle connections after the exchange, want %d", n, tc.pool)
			}
		})
	}
}

// TestPoolAnswersDecodeAsBefore: a chunked answer, the long poll's 204
// and a redirect decode as they did over http.Transport, and each
// leaves its connection for the next exchange.
func TestPoolAnswersDecodeAsBefore(t *testing.T) {
	srv, conns, _ := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case PathV1Invoke:
			w.Header().Set("Content-Type", "application/json")
			_, _ = io.WriteString(w, `{"output":`)
			w.(http.Flusher).Flush()
			_, _ = io.WriteString(w, `"chunked","wall_ns":7}`)
		case PathV1Invoke + "/a-1":
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Redirect(w, r, PathV1Invoke, http.StatusFound)
		}
	})
	c := mustClient(t, srv.URL)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		got, err := c.Invoke(ctx, InvokeRequest{Function: "f"})
		if err != nil || got.Output != "chunked" || got.WallNs != 7 {
			t.Errorf("chunked answer = %+v, %v", got, err)
		}
		res, err := c.ResultWait(ctx, "a-1", time.Second)
		if err != nil || res != (AsyncResult{ID: "a-1", Status: AsyncPending}) {
			t.Errorf("204 answer = %+v, %v", res, err)
		}
		err = c.Health(ctx)
		if cberr.CodeOf(err) != cberr.CodeForHTTPStatus(http.StatusFound) || !strings.Contains(err.Error(), "status 302") {
			t.Errorf("redirect = %v, want a classified status 302", err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("six exchanges took %d connections, want 1", n)
	}
}

// TestPoolHoldsTwoPerHost: five exchanges in flight at once take five
// connections, and only two of them stay idle afterwards.
func TestPoolHoldsTwoPerHost(t *testing.T) {
	const n = 5
	var arrived sync.WaitGroup
	arrived.Add(n)
	release := make(chan struct{})
	srv, conns, _ := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		arrived.Done()
		<-release
		invokeOK(w, r)
	})
	c := mustClient(t, srv.URL)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := c.Invoke(context.Background(), InvokeRequest{Function: "f"})
			errs <- err
		}()
	}
	arrived.Wait()
	close(release)
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := conns.Load(); got != n {
		t.Errorf("%d exchanges in flight took %d connections", n, got)
	}
	if got := idleTo(c); got != maxIdlePerHost {
		t.Errorf("%d idle connections, want %d", got, maxIdlePerHost)
	}
}

// TestPoolDropsClosedWhenFull: a pool holding maxIdle connections whose
// servers have all gone parks the next one after closing them, and
// never holds more than maxIdle.
func TestPoolDropsClosedWhenFull(t *testing.T) {
	dial := rawConns(t)
	p := connPool{conns: make(map[string][]*conn)}
	var servers []net.Conn
	for i := 0; i < maxIdle; i++ {
		pc, sc := dial()
		servers = append(servers, sc)
		p.put(fmt.Sprint("host-", i), pc)
	}
	extra, sc := dial()
	defer sc.Close()
	p.put("one-more", extra)
	if p.n != maxIdle || len(p.conns["one-more"]) != 0 {
		t.Fatalf("full pool of open connections: %d parked, extra parked %d times", p.n, len(p.conns["one-more"]))
	}
	extra, sc2 := dial()
	defer sc2.Close()
	for _, sc := range servers {
		_ = sc.Close()
	}
	time.Sleep(10 * time.Millisecond) // let the closes reach the sockets
	p.put("one-more", extra)
	if p.n != 1 || len(p.conns) != 1 || len(p.conns["one-more"]) != 1 {
		t.Errorf("after the servers closed: %d parked under %d keys, want only the new one", p.n, len(p.conns))
	}
	closeAll(&p)
}

// TestPoolSweepsIdleAndGone: a sweep closes the connections parked for
// idleTimeout and those whose server has gone, without a request to
// their server, and keeps the rest. A dial (sweepIfDue) or a put runs
// it at most once per idleTimeout.
func TestPoolSweepsIdleAndGone(t *testing.T) {
	dial := rawConns(t)
	p := connPool{conns: make(map[string][]*conn)}
	park := func(key string) (*conn, net.Conn) {
		pc, sc := dial()
		t.Cleanup(func() { _ = sc.Close() })
		p.put(key, pc)
		return pc, sc
	}
	park("live") // the first put sweeps: the pool was never swept
	_, goneSrv := park("gone")
	stale, staleSrv := park("stale")
	_ = goneSrv.Close()
	stale.parked = stale.parked.Add(-idleTimeout)
	time.Sleep(10 * time.Millisecond) // let the close reach the socket

	p.sweepIfDue(time.Now())
	if p.n != 3 {
		t.Fatalf("a dial swept before idleTimeout passed: %d parked, want 3", p.n)
	}
	p.swept = p.swept.Add(-idleTimeout)
	p.sweepIfDue(time.Now())
	if p.n != 1 || len(p.conns) != 1 || len(p.conns["live"]) != 1 {
		t.Fatalf("after a due sweep: %d parked under %d keys, want only the live one", p.n, len(p.conns))
	}
	_ = staleSrv.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := staleSrv.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("the stale connection's server reads %v, want EOF: the sweep did not close it", err)
	}

	stale, _ = park("stale")
	stale.parked = stale.parked.Add(-idleTimeout)
	park("next")
	if p.n != 3 {
		t.Fatalf("a put swept before idleTimeout passed: %d parked, want 3", p.n)
	}
	p.swept = p.swept.Add(-idleTimeout)
	park("last")
	if p.n != 3 || len(p.conns["stale"]) != 0 {
		t.Errorf("after a due put: %d parked, stale parked %d times, want 3 and 0", p.n, len(p.conns["stale"]))
	}
	closeAll(&p)
}

// rawConns returns a dialer of client connections to a bare listener
// that answers nothing; each call hands back the client's end and the
// server's.
func rawConns(t *testing.T) func() (*conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	served := make(chan net.Conn)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			served <- nc
		}
	}()
	c, err := New("http://" + ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return func() (*conn, net.Conn) {
		pc, err := c.peer.dial(context.Background(), time.Now().Add(5*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		return pc, <-served
	}
}

// closeAll closes every connection p holds.
func closeAll(p *connPool) {
	for _, conns := range p.conns {
		for _, pc := range conns {
			_ = pc.Close()
		}
	}
}
