package api

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"confbench/internal/cberr"
	"confbench/internal/obs"
	"confbench/internal/perfmon"
	"confbench/internal/tee"
)

// Typed JSON for the bodies of the REST edge's hot exchanges: an invoke
// request and its response, an async submission and an async result,
// and the error envelope any of them may turn into. These are the only
// types the edge codes by hand; every other type keeps encoding/json.
//
// The encoders write exactly the bytes json.Marshal writes (field
// order, omitempty, HTML escaping), appending into pooled buffers. A
// non-nil Trace is the one nested value they hand to json.Marshal.
//
// The decoders accept the canonical form those encoders write: keys in
// field order, no whitespace inside the value, omitempty fields absent
// or present. They hand anything else — reordered or unknown keys,
// whitespace, null, a number where a string belongs — to encoding/json
// unchanged, so a foreign peer's body decodes exactly as before, and a
// decoder that gives up leaves its target untouched. They never write
// through a pointer the target already holds (a seeded Trace, Response
// or Error): merging into it is encoding/json's business.

// bodyPool recycles the buffers edge bodies are encoded into and read
// into; one grown past maxPooledBody is dropped.
var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

const maxPooledBody = 64 << 10

func putBody(bp *[]byte) {
	if cap(*bp) <= maxPooledBody {
		*bp = (*bp)[:0]
		bodyPool.Put(bp)
	}
}

// appendEdge appends v's JSON to b as json.Marshal would write it when
// v is an edge body; ok is false (and b unchanged) for any other type.
// err is the trace's json.Marshal failure, if any.
func appendEdge(b []byte, v any) (out []byte, ok bool, err error) {
	switch v := v.(type) {
	case InvokeRequest:
		return appendInvokeRequest(b, &v), true, nil
	case *InvokeRequest:
		if v != nil {
			return appendInvokeRequest(b, v), true, nil
		}
	case InvokeResponse:
		out, err = appendInvokeResponse(b, &v)
		return out, true, err
	case AsyncSubmitResponse:
		return appendAsyncSubmit(b, &v), true, nil
	case AsyncResult:
		out, err = appendAsyncResult(b, &v)
		return out, true, err
	case ErrorResponse:
		return appendErrorResponse(b, &v), true, nil
	}
	return b, false, nil
}

func appendInvokeRequest(b []byte, r *InvokeRequest) []byte {
	b = appendString(append(b, `{"function":`...), r.Function)
	if r.Scale != 0 {
		b = strconv.AppendInt(append(b, `,"scale":`...), int64(r.Scale), 10)
	}
	b = strconv.AppendBool(append(b, `,"secure":`...), r.Secure)
	if r.TEE != "" {
		b = appendString(append(b, `,"tee":`...), string(r.TEE))
	}
	if r.Trace {
		b = append(b, `,"trace":true`...)
	}
	return append(b, '}')
}

func appendInvokeResponse(b []byte, r *InvokeResponse) ([]byte, error) {
	b = appendString(append(b, `{"output":`...), r.Output)
	b = strconv.AppendInt(append(b, `,"wall_ns":`...), r.WallNs, 10)
	b = strconv.AppendInt(append(b, `,"bootstrap_ns":`...), r.BootstrapNs, 10)
	b = appendStats(append(b, `,"perf":`...), &r.Perf)
	b = strconv.AppendBool(append(b, `,"secure":`...), r.Secure)
	b = appendString(append(b, `,"platform":`...), string(r.Platform))
	if r.Host != "" {
		b = appendString(append(b, `,"host":`...), r.Host)
	}
	if r.VM != "" {
		b = appendString(append(b, `,"vm":`...), r.VM)
	}
	if r.Trace != nil {
		tr, err := json.Marshal(r.Trace)
		if err != nil {
			return b, err
		}
		b = append(append(b, `,"trace":`...), tr...)
	}
	return append(b, '}'), nil
}

func appendStats(b []byte, s *perfmon.Stats) []byte {
	b = strconv.AppendInt(append(b, `{"wall":`...), int64(s.Wall), 10)
	b = strconv.AppendUint(append(b, `,"instructions":`...), s.Instructions, 10)
	b = strconv.AppendUint(append(b, `,"cycles":`...), s.Cycles, 10)
	b = strconv.AppendUint(append(b, `,"cache_refs":`...), s.CacheRefs, 10)
	b = strconv.AppendUint(append(b, `,"cache_misses":`...), s.CacheMisses, 10)
	b = strconv.AppendUint(append(b, `,"context_switches":`...), s.ContextSwitches, 10)
	b = strconv.AppendUint(append(b, `,"page_faults":`...), s.PageFaults, 10)
	b = strconv.AppendUint(append(b, `,"tee_exits":`...), s.TEEExits, 10)
	b = appendString(append(b, `,"monitor":`...), s.Monitor)
	return append(b, '}')
}

func appendAsyncSubmit(b []byte, r *AsyncSubmitResponse) []byte {
	b = appendString(append(b, `{"id":`...), r.ID)
	b = appendString(append(b, `,"status":`...), r.Status)
	return append(b, '}')
}

func appendAsyncResult(b []byte, r *AsyncResult) ([]byte, error) {
	b = appendString(append(b, `{"id":`...), r.ID)
	b = appendString(append(b, `,"status":`...), r.Status)
	if r.Response != nil {
		var err error
		if b, err = appendInvokeResponse(append(b, `,"response":`...), r.Response); err != nil {
			return b, err
		}
	}
	if r.Error != nil {
		b = appendErrorResponse(append(b, `,"error":`...), r.Error)
	}
	return append(b, '}'), nil
}

func appendErrorResponse(b []byte, e *ErrorResponse) []byte {
	b = appendString(append(b, `{"error":`...), e.Error)
	if e.Code != "" {
		b = appendString(append(b, `,"code":`...), string(e.Code))
	}
	if e.Layer != "" {
		b = appendString(append(b, `,"layer":`...), string(e.Layer))
	}
	if e.Retryable {
		b = append(b, `,"retryable":true`...)
	}
	if e.RetryAfterMS != 0 {
		b = strconv.AppendInt(append(b, `,"retry_after_ms":`...), e.RetryAfterMS, 10)
	}
	return append(b, '}')
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on:
// <, > and & become \u003c, \u003e and \u0026; control bytes take the
// short escapes or \u00XX; invalid UTF-8 becomes \ufffd; U+2028 and
// U+2029 are escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// WriteJSON writes v as a JSON response with the given status: the
// bytes json.NewEncoder(w).Encode(v) writes, the edge bodies through
// their typed encoders.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	bp := bodyPool.Get().(*[]byte)
	defer putBody(bp)
	b, ok, err := appendEdge(*bp, v)
	*bp = b
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	// An encode failure here means the client went away; ignore it.
	if !ok {
		_ = json.NewEncoder(w).Encode(v)
		return
	}
	if err == nil {
		*bp = append(b, '\n')
		_, _ = w.Write(*bp)
	}
}

// ReadJSON decodes one JSON value from a request body into v as
// json.NewDecoder(body).Decode(v) does: the first value is read and
// anything after it ignored. size is the body's length when the sender
// declared it (http.Request.ContentLength), -1 otherwise. An edge body
// of declared size is read whole into a pooled buffer and parsed
// there; any other body, or one the typed decoder refuses, goes
// through json.Decoder over the same bytes.
func ReadJSON(body io.Reader, size int64, v any) error {
	if size < 0 || size > maxPooledBody || !edgeBody(v) {
		return json.NewDecoder(body).Decode(v)
	}
	bp := bodyPool.Get().(*[]byte)
	defer putBody(bp)
	b, err := readFull(body, *bp, int(size))
	*bp = b
	if err == nil && parseEdge(b, v, true) {
		return nil
	}
	// The decoder reads the bytes already taken, then whatever the body
	// yields next: its EOF, or the error the read stopped at.
	return json.NewDecoder(io.MultiReader(bytes.NewReader(b), body)).Decode(v)
}

// readFull reads exactly n bytes from r into b (grown as needed); a
// short read returns what arrived with its error.
func readFull(r io.Reader, b []byte, n int) ([]byte, error) {
	if cap(b) < n {
		b = make([]byte, n)
	}
	m, err := io.ReadFull(r, b[:n])
	return b[:m], err
}

// unmarshalEdge is json.Unmarshal(data, v), through the typed decoder
// when v is an edge body and data is in its canonical form.
func unmarshalEdge(data []byte, v any) error {
	if parseEdge(data, v, false) {
		return nil
	}
	return json.Unmarshal(data, v)
}

// edgeBody reports whether v has a typed decoder.
func edgeBody(v any) bool {
	switch v.(type) {
	case *InvokeRequest, *InvokeResponse, *AsyncSubmitResponse, *AsyncResult, *ErrorResponse:
		return true
	}
	return false
}

// parseEdge decodes data into v when v is an edge body and data holds
// its canonical form, followed by nothing but whitespace (or, with
// stream set, by anything: json.Decoder reads one value and stops). It
// reports false, with v untouched, otherwise: each decoder fills a copy
// of *v, stored only once the whole input is accepted.
func parseEdge(data []byte, v any, stream bool) bool {
	p := edgeParser{b: data, ok: true}
	switch v := v.(type) {
	case *InvokeRequest:
		r := *v
		if p.invokeRequest(&r); p.done(stream) {
			*v = r
			return true
		}
	case *InvokeResponse:
		r := *v
		if p.invokeResponse(&r); p.done(stream) {
			*v = r
			return true
		}
	case *AsyncSubmitResponse:
		r := *v
		if p.asyncSubmit(&r); p.done(stream) {
			*v = r
			return true
		}
	case *AsyncResult:
		r := *v
		if p.asyncResult(&r); p.done(stream) {
			*v = r
			return true
		}
	case *ErrorResponse:
		r := *v
		if p.errorResponse(&r); p.done(stream) {
			*v = r
			return true
		}
	}
	return false
}

// done reports whether the parse succeeded and ended where it may.
func (p *edgeParser) done(stream bool) bool {
	return p.ok && (stream || onlySpace(p.b[p.i:]))
}

func onlySpace(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return true
}

// edgeParser walks one canonical body. The first mismatch clears ok;
// every later call is then a no-op.
type edgeParser struct {
	b  []byte
	i  int
	ok bool
}

// key consumes the literal s (a key with its punctuation) or fails.
func (p *edgeParser) key(s string) {
	if !p.opt(s) {
		p.ok = false
	}
}

// opt consumes the literal s if it comes next.
func (p *edgeParser) opt(s string) bool {
	if p.ok && len(p.b)-p.i >= len(s) && string(p.b[p.i:p.i+len(s)]) == s {
		p.i += len(s)
		return true
	}
	return false
}

func (p *edgeParser) invokeRequest(r *InvokeRequest) {
	p.key(`{"function":`)
	r.Function = p.str()
	if p.opt(`,"scale":`) {
		n := p.int64()
		if r.Scale = int(n); int64(r.Scale) != n {
			p.ok = false
		}
	}
	p.key(`,"secure":`)
	r.Secure = p.bool()
	if p.opt(`,"tee":`) {
		r.TEE = tee.Kind(p.ident())
	}
	if p.opt(`,"trace":`) {
		r.Trace = p.bool()
	}
	p.key(`}`)
}

func (p *edgeParser) invokeResponse(r *InvokeResponse) {
	p.key(`{"output":`)
	r.Output = p.str()
	p.key(`,"wall_ns":`)
	r.WallNs = p.int64()
	p.key(`,"bootstrap_ns":`)
	r.BootstrapNs = p.int64()
	p.key(`,"perf":`)
	p.stats(&r.Perf)
	p.key(`,"secure":`)
	r.Secure = p.bool()
	p.key(`,"platform":`)
	r.Platform = tee.Kind(p.ident())
	if p.opt(`,"host":`) {
		r.Host = p.str()
	}
	if p.opt(`,"vm":`) {
		r.VM = p.str()
	}
	if p.opt(`,"trace":`) {
		if r.Trace != nil {
			p.ok = false
			return
		}
		r.Trace = p.trace()
	}
	p.key(`}`)
}

func (p *edgeParser) stats(s *perfmon.Stats) {
	p.key(`{"wall":`)
	s.Wall = time.Duration(p.int64())
	p.key(`,"instructions":`)
	s.Instructions = p.uint64()
	p.key(`,"cycles":`)
	s.Cycles = p.uint64()
	p.key(`,"cache_refs":`)
	s.CacheRefs = p.uint64()
	p.key(`,"cache_misses":`)
	s.CacheMisses = p.uint64()
	p.key(`,"context_switches":`)
	s.ContextSwitches = p.uint64()
	p.key(`,"page_faults":`)
	s.PageFaults = p.uint64()
	p.key(`,"tee_exits":`)
	s.TEEExits = p.uint64()
	p.key(`,"monitor":`)
	s.Monitor = p.ident()
	p.key(`}`)
}

func (p *edgeParser) asyncSubmit(r *AsyncSubmitResponse) {
	p.key(`{"id":`)
	r.ID = p.str()
	p.key(`,"status":`)
	r.Status = p.ident()
	p.key(`}`)
}

func (p *edgeParser) asyncResult(r *AsyncResult) {
	p.key(`{"id":`)
	r.ID = p.str()
	p.key(`,"status":`)
	r.Status = p.ident()
	if p.opt(`,"response":`) {
		if r.Response != nil {
			p.ok = false
			return
		}
		r.Response = new(InvokeResponse)
		p.invokeResponse(r.Response)
	}
	if p.opt(`,"error":`) {
		if r.Error != nil {
			p.ok = false
			return
		}
		r.Error = new(ErrorResponse)
		p.errorResponse(r.Error)
	}
	p.key(`}`)
}

func (p *edgeParser) errorResponse(e *ErrorResponse) {
	p.key(`{"error":`)
	e.Error = p.str()
	if p.opt(`,"code":`) {
		e.Code = cberr.Code(p.str())
	}
	if p.opt(`,"layer":`) {
		e.Layer = cberr.Layer(p.str())
	}
	if p.opt(`,"retryable":`) {
		e.Retryable = p.bool()
	}
	if p.opt(`,"retry_after_ms":`) {
		e.RetryAfterMS = p.int64()
	}
	p.key(`}`)
}

func (p *edgeParser) bool() bool {
	switch {
	case p.opt("true"):
		return true
	case p.opt("false"):
		return false
	}
	p.ok = false
	return false
}

// uint64 consumes a JSON integer without sign: 0, or a nonzero digit
// and more digits, whose value fits in a uint64.
func (p *edgeParser) uint64() uint64 {
	if !p.ok || p.i >= len(p.b) || p.b[p.i] < '0' || p.b[p.i] > '9' {
		p.ok = false
		return 0
	}
	if p.b[p.i] == '0' {
		p.i++
		return 0
	}
	var n uint64
	for ; p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9'; p.i++ {
		d := uint64(p.b[p.i] - '0')
		if n > (1<<64-1-d)/10 {
			p.ok = false
			return 0
		}
		n = n*10 + d
	}
	return n
}

func (p *edgeParser) int64() int64 {
	neg := p.opt("-")
	n := p.uint64()
	switch {
	case neg && n <= 1<<63:
		return -int64(n)
	case !neg && n < 1<<63:
		return int64(n)
	}
	p.ok = false
	return 0
}

// str consumes a JSON string: plain bytes are copied as they are, the
// escapes JSON defines are decoded, and raw invalid UTF-8 or a
// surrogate escape (which encoding/json replaces or pairs) refuses.
func (p *edgeParser) str() string { return string(p.strBytes()) }

// ident is str for a string that is almost always one of a closed set
// (a TEE kind, a perf monitor, an async status): those decode to the
// set's constant without copying.
func (p *edgeParser) ident() string {
	b := p.strBytes()
	switch string(b) {
	case string(tee.KindTDX):
		return string(tee.KindTDX)
	case string(tee.KindSEV):
		return string(tee.KindSEV)
	case string(tee.KindCCA):
		return string(tee.KindCCA)
	case string(tee.KindNone):
		return string(tee.KindNone)
	case perfmon.NamePerfStat:
		return perfmon.NamePerfStat
	case perfmon.NameCCAScript:
		return perfmon.NameCCAScript
	case AsyncPending:
		return AsyncPending
	case AsyncDone:
		return AsyncDone
	case AsyncError:
		return AsyncError
	}
	return string(b)
}

// strBytes returns the string's contents: a slice of the input when it
// holds no escape, else a decoded copy (nil when it fails).
func (p *edgeParser) strBytes() []byte {
	p.key(`"`)
	if !p.ok {
		return nil
	}
	start := p.i
	for i := start; i < len(p.b); i++ {
		switch c := p.b[i]; {
		case c == '"':
			p.i = i + 1
			return p.b[start:i]
		case c == '\\' || c < 0x20 || c >= utf8.RuneSelf:
			return p.strSlow(start)
		}
	}
	p.ok = false
	return nil
}

func (p *edgeParser) strSlow(start int) []byte {
	var out []byte
	for i := start; i < len(p.b); {
		switch c := p.b[i]; {
		case c == '"':
			p.i = i + 1
			return out
		case c == '\\':
			r, n := unescape(p.b[i+1:])
			if n == 0 {
				p.ok = false
				return nil
			}
			out = utf8.AppendRune(out, r)
			i += 1 + n
		case c < 0x20:
			p.ok = false
			return nil
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(p.b[i:])
			if r == utf8.RuneError && size == 1 {
				p.ok = false
				return nil
			}
			out = append(out, p.b[i:i+size]...)
			i += size
		}
	}
	p.ok = false
	return nil
}

// unescape decodes the escape after a backslash, returning the rune
// and the bytes it spans; n is 0 for an escape JSON does not define and
// for a UTF-16 surrogate.
func unescape(b []byte) (r rune, n int) {
	if len(b) == 0 {
		return 0, 0
	}
	switch b[0] {
	case '"', '\\', '/':
		return rune(b[0]), 1
	case 'b':
		return '\b', 1
	case 'f':
		return '\f', 1
	case 'n':
		return '\n', 1
	case 'r':
		return '\r', 1
	case 't':
		return '\t', 1
	case 'u':
		if len(b) < 5 {
			return 0, 0
		}
		for _, c := range b[1:5] {
			var d byte
			switch {
			case '0' <= c && c <= '9':
				d = c - '0'
			case 'a' <= c && c <= 'f':
				d = c - 'a' + 10
			case 'A' <= c && c <= 'F':
				d = c - 'A' + 10
			default:
				return 0, 0
			}
			r = r<<4 | rune(d)
		}
		if 0xD800 <= r && r < 0xE000 {
			return 0, 0
		}
		return r, 5
	}
	return 0, 0
}

// trace consumes one JSON object and decodes it with encoding/json:
// the span tree is the one nested value the edge leaves to it.
func (p *edgeParser) trace() *obs.SpanData {
	end, ok := objectEnd(p.b, p.i)
	if !ok || !p.ok {
		p.ok = false
		return nil
	}
	var sd obs.SpanData
	if json.Unmarshal(p.b[p.i:end], &sd) != nil {
		p.ok = false
		return nil
	}
	p.i = end
	return &sd
}

// objectEnd finds the end of the object starting at b[i] by matching
// braces outside strings; json.Unmarshal then validates what it spans.
func objectEnd(b []byte, i int) (int, bool) {
	if i >= len(b) || b[i] != '{' {
		return 0, false
	}
	depth, inStr := 0, false
	for ; i < len(b); i++ {
		c := b[i]
		switch {
		case inStr && c == '\\':
			i++
		case c == '"':
			inStr = !inStr
		case inStr:
		case c == '{':
			depth++
		case c == '}':
			if depth--; depth == 0 {
				return i + 1, true
			}
		}
	}
	return 0, false
}
