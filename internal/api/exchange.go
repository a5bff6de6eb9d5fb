package api

import (
	"bufio"
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"confbench/internal/cberr"
)

// The tree's one HTTP client: Peer.Exchange speaks HTTP/1.1 itself, on
// the caller's goroutine. It takes an idle keep-alive connection from
// one process-wide pool or dials a new one, writes the request line,
// headers and body in one Write, and reads the answer with
// http.ReadResponse. No http.Transport stands behind it, so no proxy
// variable is consulted and an https base URL speaks HTTP/1.1 over
// crypto/tls. The REST client, the httpjson carrier and the DCAP
// collateral fetch all go through it.

const (
	// maxIdlePerHost, maxIdle and idleTimeout bound the idle pool as
	// http.DefaultTransport bounds its own. A connection parked longer
	// than idleTimeout is closed by the next sweep, which a put or a
	// dial runs at most once per idleTimeout: no timer, no goroutine.
	maxIdlePerHost = 2
	maxIdle        = 100
	idleTimeout    = 90 * time.Second
)

// tlsRoots verifies https servers; nil means the host's root pool.
var tlsRoots *x509.CertPool

// conn is one keep-alive connection the client owns.
type conn struct {
	net.Conn // TCP, or TLS over it
	// raw is the TCP socket under Conn, which alive peeks at.
	raw syscall.RawConn
	br  *bufio.Reader
	// body is the current answer's body, noting whether it was read to
	// its end.
	body eofBody
	// abort and probe are expire and peek, bound once per connection
	// so that handing them out allocates nothing; peek leaves its
	// verdict in open.
	abort   func()
	probe   func(fd uintptr)
	open    bool
	peekBuf [1]byte
	// parked is when the connection last went idle.
	parked time.Time
}

// eofBody is a response body that notes whether it was read to its end.
type eofBody struct {
	io.ReadCloser
	eof bool
}

func (b *eofBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.eof = b.eof || err == io.EOF
	return n, err
}

// aLongTimeAgo is a deadline that has passed: setting it ends any read
// or write in flight.
var aLongTimeAgo = time.Unix(1, 0)

func (pc *conn) expire() { _ = pc.SetDeadline(aLongTimeAgo) }

// alive reports whether pc can carry another request: nothing of an
// earlier answer is left buffered, and a non-blocking peek at the
// socket finds neither the server's close nor bytes nobody asked for.
func (pc *conn) alive() bool {
	if pc.br.Buffered() > 0 {
		return false
	}
	pc.open = false
	return pc.raw.Control(pc.probe) == nil && pc.open
}

// Peer is one HTTP server the exchange talks to: its base URL, parsed
// once, and the key its connections sit under in the idle pool.
type Peer struct {
	baseURL string
	base    *url.URL // baseURL, parsed once; base.Host is the Host header
	// plainBase: base has a plain path and no query or fragment, so a
	// plain path's request target is the two joined.
	plainBase bool
	// addr is the server's host:port, key names its connections in the
	// idle pool, and tls is set for an https base URL.
	addr, key string
	tls       *tls.Config
	// timeout bounds each exchange (attemptTimeout); tests shorten it.
	timeout time.Duration
}

// NewPeer parses baseURL, which must be absolute with an http or https
// scheme and a host.
func NewPeer(baseURL string) (*Peer, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, cberr.Wrap(cberr.CodeInvalid, cberr.LayerClient,
			fmt.Errorf("api: parse base URL %q: %w", baseURL, err))
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, cberr.Newf(cberr.CodeInvalid, cberr.LayerClient,
			"api: base URL %q: scheme must be http or https", baseURL)
	}
	if u.Host == "" {
		return nil, cberr.Newf(cberr.CodeInvalid, cberr.LayerClient,
			"api: base URL %q has no host", baseURL)
	}
	// What http.NewRequest does to every request's host.
	u.Host = strings.TrimSuffix(u.Host, ":")
	p := &Peer{
		baseURL:   baseURL,
		base:      u,
		plainBase: u.RawPath == "" && u.RawQuery == "" && !u.ForceQuery && u.Fragment == "" && plainPath(u.Path),
		addr:      u.Host,
		timeout:   attemptTimeout,
	}
	if u.Port() == "" {
		port := "80"
		if u.Scheme == "https" {
			port = "443"
		}
		p.addr = net.JoinHostPort(u.Hostname(), port)
	}
	p.key = u.Scheme + "://" + p.addr
	if u.Scheme == "https" {
		p.tls = &tls.Config{ServerName: u.Hostname(), RootCAs: tlsRoots, NextProtos: []string{"http/1.1"}}
	}
	return p, nil
}

// Exchange performs one HTTP exchange with p: method on path, with
// tenant in HeaderTenant unless it is empty, and body as JSON unless
// it is nil. The answer decodes into out (nil to discard), or comes
// back as a classified error: the peer's error envelope, or a
// LayerClient failure of the exchange itself. It is bounded by p's
// timeout as well as by ctx, and never retries.
//
// The timeout and ctx become deadlines on the connection; ctx is
// watched only when it can be cancelled.
func (p *Peer) Exchange(ctx context.Context, method, path, tenant string, body []byte, out any) error {
	if !validHeaderValue(tenant) {
		return cberr.Wrap(cberr.CodeUnavailable, cberr.LayerClient,
			fmt.Errorf("api: %s %s: invalid header field value for %q", method, path, HeaderTenant))
	}
	bp := bodyPool.Get().(*[]byte)
	defer putBody(bp)
	req, err := p.appendRequest(*bp, method, path, tenant, body)
	*bp = req
	if err != nil {
		return cberr.Wrap(cberr.CodeInvalid, cberr.LayerClient,
			fmt.Errorf("api: %s %s: %w", method, path, err))
	}
	deadline := time.Now().Add(p.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	pc := idle.get(p.key)
	if pc == nil {
		idle.sweepIfDue(time.Now())
		if pc, err = p.dial(ctx, deadline); err != nil {
			return failed(ctx, method, path, err)
		}
	}
	// The deadline is set before ctx is watched, so that it cannot
	// overwrite the one a cancel sets.
	if err := pc.SetDeadline(deadline); err != nil {
		_ = pc.Close()
		return failed(ctx, method, path, err)
	}
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, pc.abort)
	}
	resp, err := pc.roundTrip(req)
	if err != nil {
		if stop != nil {
			stop()
		}
		_ = pc.Close()
		return failed(ctx, method, path, err)
	}
	err = decodeResponse(resp, path, out)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		// The deadline or a cancel landed in the body: it reads as one
		// that landed before the answer.
		err = failed(ctx, method, path, os.ErrDeadlineExceeded)
	}
	// The connection carries another request only once this answer was
	// read to its end and did not ask to close, and while no abort has
	// spent its deadline.
	reuse := !resp.Close && pc.body.eof
	if stop != nil && !stop() {
		reuse = false
	}
	if reuse {
		idle.put(p.key, pc)
	} else {
		_ = pc.Close()
	}
	return err
}

// failed classifies an exchange that got no answer. Cancellation and
// deadline expiry keep their taxonomy codes; everything else at the
// connection level is a (retryable) availability problem: connection
// refused, reset, DNS.
func failed(ctx context.Context, method, path string, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cberr.From(fmt.Errorf("api: %s %s: %w", method, path, cerr), cberr.LayerClient)
	}
	if errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded) {
		return cberr.Wrap(cberr.CodeDeadline, cberr.LayerClient,
			fmt.Errorf("api: %s %s: %w", method, path, err))
	}
	return cberr.Wrap(cberr.CodeUnavailable, cberr.LayerClient,
		fmt.Errorf("api: %s %s: %w", method, path, err))
}

// roundTrip writes req and reads the answer's head; the body is left
// for the caller, behind pc.body.
func (pc *conn) roundTrip(req []byte) (*http.Response, error) {
	if _, err := pc.Write(req); err != nil {
		return nil, err
	}
	resp, err := http.ReadResponse(pc.br, nil)
	if err != nil {
		return nil, err
	}
	pc.body = eofBody{ReadCloser: resp.Body, eof: resp.Body == http.NoBody}
	resp.Body = &pc.body
	return resp, nil
}

// dial opens a new connection to p by the deadline, through TLS for an
// https base URL.
func (p *Peer) dial(ctx context.Context, deadline time.Time) (*conn, error) {
	d := net.Dialer{Deadline: deadline}
	nc, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return nil, err
	}
	raw, err := nc.(*net.TCPConn).SyscallConn()
	if err != nil {
		_ = nc.Close()
		return nil, err
	}
	if p.tls != nil {
		tc := tls.Client(nc, p.tls)
		if err := tc.SetDeadline(deadline); err != nil {
			_ = nc.Close()
			return nil, err
		}
		if err := tc.HandshakeContext(ctx); err != nil {
			_ = nc.Close()
			return nil, err
		}
		nc = tc
	}
	pc := &conn{Conn: nc, raw: raw, br: bufio.NewReader(nc)}
	pc.abort, pc.probe = pc.expire, pc.peek
	return pc, nil
}

// appendRequest appends one HTTP/1.1 request to b: the request line,
// Host, the body's length and type when there is a body, the tenant
// when there is one, and the body.
func (p *Peer) appendRequest(b []byte, method, path, tenant string, body []byte) ([]byte, error) {
	b = append(append(b[:0], method...), ' ')
	b, err := p.appendTarget(b, path)
	if err != nil {
		return b, err
	}
	b = append(append(b, " HTTP/1.1\r\nHost: "...), p.base.Host...)
	if body != nil {
		b = strconv.AppendInt(append(b, "\r\nContent-Length: "...), int64(len(body)), 10)
		b = append(b, "\r\nContent-Type: application/json"...)
	}
	if tenant != "" {
		b = append(append(b, "\r\n"+HeaderTenant+": "...), tenant...)
	}
	return append(append(b, "\r\n\r\n"...), body...), nil
}

// appendTarget appends the request target of path: the request URI of
// the URL url resolves it to. A plain path against a plain base is
// joined in place; anything else goes through url, and a target a
// request line cannot carry (a control byte or a space) is refused.
func (p *Peer) appendTarget(b []byte, path string) ([]byte, error) {
	pp, q, _ := strings.Cut(path, "?")
	if p.plainBase && plainPath(pp) && plainPath(q) {
		n := len(b)
		b = append(append(b, p.base.Path...), pp...)
		if len(b) == n {
			b = append(b, '/')
		}
		if q != "" {
			b = append(append(b, '?'), q...)
		}
		return b, nil
	}
	u, err := p.url(path)
	if err != nil {
		return b, err
	}
	target := u.RequestURI()
	for i := 0; i < len(target); i++ {
		if target[i] <= ' ' || target[i] == 0x7f {
			return b, fmt.Errorf("request target %q holds byte %#x", target, target[i])
		}
	}
	return append(b, target...), nil
}

// url resolves path (with any query) against the base URL parsed in
// NewPeer. A path built from plain segments is joined without a parse;
// anything else (an escaped segment) parses as baseURL+path always
// did.
func (p *Peer) url(path string) (*url.URL, error) {
	pp, q, _ := strings.Cut(path, "?")
	if p.base.RawPath != "" || p.base.RawQuery != "" || p.base.Fragment != "" || !plainPath(pp) || !plainPath(q) {
		u, err := url.Parse(p.baseURL + path)
		if err == nil {
			u.Host = strings.TrimSuffix(u.Host, ":")
		}
		return u, err
	}
	u := *p.base
	u.Path, u.RawQuery = p.base.Path+pp, q
	return &u, nil
}

// plainPath reports whether s holds only bytes a URL path and query
// carry as themselves: letters, digits, and -._~/=&.
func plainPath(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '-', c == '.', c == '_', c == '~', c == '/', c == '=', c == '&':
		default:
			return false
		}
	}
	return true
}

// validHeaderValue reports whether v can be sent as a header value:
// no control byte but tab.
func validHeaderValue(v string) bool {
	for i := 0; i < len(v); i++ {
		if b := v[i]; b < ' ' && b != '\t' || b == 0x7f {
			return false
		}
	}
	return true
}

// connPool holds idle keep-alive connections by scheme and address,
// most recently used last.
type connPool struct {
	mu    sync.Mutex
	conns map[string][]*conn
	n     int
	swept time.Time // when sweep last ran
}

var idle = connPool{conns: make(map[string][]*conn)}

// get takes the most recently used idle connection to key that is
// still open, closing the ones it finds closed; nil when none is.
func (p *connPool) get(key string) *conn {
	for {
		p.mu.Lock()
		conns := p.conns[key]
		if len(conns) == 0 {
			p.mu.Unlock()
			return nil
		}
		pc := conns[len(conns)-1]
		conns[len(conns)-1] = nil
		p.conns[key] = conns[:len(conns)-1]
		p.n--
		p.mu.Unlock()
		if pc.alive() {
			return pc
		}
		_ = pc.Close()
	}
}

// put parks pc as idle, or closes it when key already has
// maxIdlePerHost idle connections or maxIdle open ones are parked. A
// full pool is swept first, and so is one whose last sweep is
// idleTimeout old.
func (p *connPool) put(key string, pc *conn) {
	now := time.Now()
	pc.parked = now
	p.mu.Lock()
	if p.n >= maxIdle || now.Sub(p.swept) >= idleTimeout {
		p.sweep(now)
	}
	conns := p.conns[key]
	if len(conns) >= maxIdlePerHost || p.n >= maxIdle {
		p.mu.Unlock()
		_ = pc.Close()
		return
	}
	p.conns[key] = append(conns, pc)
	p.n++
	p.mu.Unlock()
}

// sweepIfDue sweeps the pool when its last sweep is idleTimeout old; a
// dial calls it, so that connections to servers the process no longer
// talks to do not wait for a put.
func (p *connPool) sweepIfDue(now time.Time) {
	p.mu.Lock()
	if now.Sub(p.swept) >= idleTimeout {
		p.sweep(now)
	}
	p.mu.Unlock()
}

// sweep closes and forgets every idle connection parked for
// idleTimeout or longer, or whose server has closed it. p.mu is held.
func (p *connPool) sweep(now time.Time) {
	p.swept = now
	for key, conns := range p.conns {
		open := conns[:0]
		for _, pc := range conns {
			if now.Sub(pc.parked) < idleTimeout && pc.alive() {
				open = append(open, pc)
			} else {
				_ = pc.Close()
				p.n--
			}
		}
		clear(conns[len(open):])
		if len(open) == 0 {
			delete(p.conns, key)
		} else {
			p.conns[key] = open
		}
	}
}

// CloseIdleConnections closes every idle connection the clients of
// this process keep for reuse; a connection in use is not touched.
func CloseIdleConnections() {
	idle.mu.Lock()
	all := idle.conns
	idle.conns, idle.n = make(map[string][]*conn), 0
	idle.mu.Unlock()
	for _, conns := range all {
		for _, pc := range conns {
			_ = pc.Close()
		}
	}
}
