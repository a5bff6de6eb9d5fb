package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzWireDecode throws arbitrary bytes at every JSON wire type the
// gateway and guest agents decode from the network. Decoding must
// never panic, and any payload a type accepts must be stable under a
// marshal/unmarshal round trip — JSON carries no NaN/Inf and the wire
// structs hold only concrete types, so a drifting round trip means a
// type regressed (e.g. an interface field or a lossy custom
// marshaler snuck in).
func FuzzWireDecode(f *testing.F) {
	f.Add(byte(0), []byte(`{"function":{"name":"f","language":"go","workload":"cpustress"}}`))
	f.Add(byte(1), []byte(`{"function":"f","secure":true,"tee":"sev-snp","scale":3}`))
	f.Add(byte(2), []byte(`{"function":{"name":"g"},"scale":1,"trace":true}`))
	f.Add(byte(3), []byte(`{"output":"ok","wall_ns":120,"secure":true,"platform":"tdx"}`))
	f.Add(byte(4), []byte(`{"tee":"cca","nonce":"AAEC"}`))
	f.Add(byte(5), []byte(`{"evidence":"3q2+7w==","attest_ns":42}`))
	f.Add(byte(6), []byte(`{"uptime_seconds":1.5,"invocations":9,"per_pool":{"tdx":4}}`))
	f.Add(byte(7), []byte(`{"tee":"tdx","endpoints":2,"members":[{"host":"h","vm":"v","breaker":"open"}]}`))
	f.Add(byte(8), []byte(`{"error":"boom","code":"exhausted","layer":"gateway","retryable":true}`))
	f.Add(byte(9), []byte(`{"id":"inv-1","status":"pending"}`))
	f.Add(byte(10), []byte(`{"id":"inv-2","status":"error","error":{"error":"shed","code":"unavailable"}}`))
	f.Add(byte(9), []byte(`null`))
	f.Add(byte(1), []byte(`{"function":"\u0000","tee":"\ud800"}`))

	f.Fuzz(func(t *testing.T, sel byte, data []byte) {
		decode := func(fresh func() any) {
			v := fresh()
			if err := json.Unmarshal(data, v); err != nil {
				return
			}
			out, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("accepted %q into %T but re-marshal failed: %v", data, v, err)
			}
			v2 := fresh()
			if err := json.Unmarshal(out, v2); err != nil {
				t.Fatalf("own marshaling of %T rejected: %v", v, err)
			}
			if !reflect.DeepEqual(v, v2) {
				t.Fatalf("round trip drifted for %T:\n  first:  %+v\n  second: %+v", v, v, v2)
			}
		}
		switch sel % 11 {
		case 0:
			decode(func() any { return new(UploadRequest) })
		case 1:
			decode(func() any { return new(InvokeRequest) })
		case 2:
			decode(func() any { return new(GuestInvokeRequest) })
		case 3:
			decode(func() any { return new(InvokeResponse) })
		case 4:
			decode(func() any { return new(AttestRequest) })
		case 5:
			decode(func() any { return new(AttestResponse) })
		case 6:
			decode(func() any { return new(Metrics) })
		case 7:
			decode(func() any { return new(PoolInfo) })
		case 8:
			decode(func() any { return new(ErrorResponse) })
		case 9:
			decode(func() any { return new(AsyncSubmitResponse) })
		case 10:
			decode(func() any { return new(AsyncResult) })
		}
	})
}

// FuzzEdgeRequest: for any method, path, tenant and body, the bytes the
// client writes for one exchange parse with http.ReadRequest into that
// method, the request URI url resolves the path to, the client's Host,
// its headers and the body, and nothing after it. A request the client
// refuses to write is one whose path url cannot resolve or whose target
// a request line cannot carry; a tenant no header value can carry is
// refused before any request is built.
func FuzzEdgeRequest(f *testing.F) {
	bases := []string{"http://example.test:8080", "http://example.test/base", "https://[::1]/p%20q/", "http://h/?"}
	f.Add(byte(0), http.MethodPost, PathV1Invoke, "t1", []byte(`{"function":"f","secure":true}`))
	f.Add(byte(1), http.MethodGet, PathV1Invoke+"/async-7?wait=2s", "", []byte(nil))
	f.Add(byte(2), http.MethodGet, "/v1/invoke/a%2Fb%20c?wait=1s", "team blue", []byte(nil))
	f.Add(byte(3), http.MethodPost, PathV1Drain, " t\t", []byte(`{}`))
	f.Fuzz(func(t *testing.T, base byte, method, path, tenant string, body []byte) {
		if !isToken(method) || !strings.HasPrefix(path, "/") {
			return
		}
		c, err := New(bases[int(base)%len(bases)], WithTenant(tenant))
		if err != nil {
			t.Fatal(err)
		}
		if c.badTenant {
			return
		}
		wrote, err := c.appendRequest(nil, method, path, body)
		u, uerr := c.url(path)
		if err != nil {
			if uerr == nil && !strings.ContainsFunc(u.RequestURI(), func(r rune) bool { return r <= ' ' || r == 0x7f }) {
				t.Fatalf("refused %s %q (target %q): %v", method, path, u.RequestURI(), err)
			}
			return
		}
		if uerr != nil {
			t.Fatalf("wrote %q for a path url refuses: %v", wrote, uerr)
		}
		br := bufio.NewReader(bytes.NewReader(wrote))
		req, err := http.ReadRequest(br)
		if err != nil {
			t.Fatalf("%q does not parse: %v", wrote, err)
		}
		got, err := io.ReadAll(req.Body)
		if err != nil {
			t.Fatalf("%q: body: %v", wrote, err)
		}
		if req.Method != method || req.RequestURI != u.RequestURI() || req.URL.Path != u.Path ||
			req.URL.RawQuery != u.RawQuery || req.Host != c.host || req.Proto != "HTTP/1.1" {
			t.Fatalf("%q parsed as %s %q (path %q, query %q) host %q %s; want %s %q (path %q, query %q) host %q",
				wrote, req.Method, req.RequestURI, req.URL.Path, req.URL.RawQuery, req.Host, req.Proto,
				method, u.RequestURI(), u.Path, u.RawQuery, c.host)
		}
		want, wantLen := http.Header{}, int64(0)
		if body != nil {
			want["Content-Type"] = []string{"application/json"}
			want["Content-Length"] = []string{strconv.Itoa(len(body))}
			wantLen = int64(len(body))
		}
		if tenant != "" {
			want[HeaderTenant] = []string{strings.Trim(tenant, " \t")}
		}
		if !reflect.DeepEqual(req.Header, want) {
			t.Fatalf("%q: headers %v, want %v", wrote, req.Header, want)
		}
		if !bytes.Equal(got, body) || req.ContentLength != wantLen {
			t.Fatalf("%q: body %q (length %d), want %q", wrote, got, req.ContentLength, body)
		}
		if br.Buffered() != 0 {
			t.Fatalf("%q: %d bytes after the request", wrote, br.Buffered())
		}
	})
}

// isToken reports whether s is an HTTP token, as a method must be.
func isToken(s string) bool {
	return s != "" && !strings.ContainsFunc(s, func(r rune) bool {
		return r > 0x7e || r <= ' ' || strings.ContainsRune(`"(),/:;<=>?@[\]{}`, r)
	})
}
