package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/faas"
	"confbench/internal/faas/langs"
	"confbench/internal/obs"
	"confbench/internal/perfmon"
	"confbench/internal/tee"
)

// Payload codecs. Hand-rolled append-based encoding rather than
// encoding/json or gob: the hot path (invoke request/response) must
// not allocate per field, and the format must stay stable for the
// committed fuzz corpus. Integers use varints; byte slices and
// strings are length-prefixed. Decoders copy what they keep — payload
// buffers return to the pool the moment decoding finishes.

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// dec is a bounds-checked decode cursor. Every read failure wraps
// ErrTruncated so fuzz inputs map to a typed error, never a panic.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrTruncated, what)
	}
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// field returns the next length-prefixed field without copying: it
// aliases the payload buffer, which is pooled and reused after decode,
// so callers copy what they keep. The length is validated against both
// the remaining input and MaxPayload, so a hostile length cannot
// over-allocate.
func (d *dec) field(what string) []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > MaxPayload || n > uint64(len(d.b)) {
		d.fail(what)
		return nil
	}
	b := d.b[:n]
	d.b = d.b[n:]
	return b
}

// bytes returns a COPY of the encoded slice (nil when empty).
func (d *dec) bytes() []byte {
	b := d.field("bytes length")
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

func (d *dec) string() string {
	return string(d.field("string length"))
}

// ident decodes a string field whose value is almost always one of a
// closed set — a TEE kind, a perf monitor name, a runtime language, or
// empty — to that set's constant, so the common case copies nothing
// (Go compiles a switch on string(b) without converting). Any other
// value copies like string.
func (d *dec) ident() string {
	b := d.field("string length")
	switch string(b) {
	case "":
		return ""
	case string(tee.KindNone):
		return string(tee.KindNone)
	case string(tee.KindTDX):
		return string(tee.KindTDX)
	case string(tee.KindSEV):
		return string(tee.KindSEV)
	case string(tee.KindCCA):
		return string(tee.KindCCA)
	case perfmon.NamePerfStat:
		return perfmon.NamePerfStat
	case perfmon.NameCCAScript:
		return perfmon.NameCCAScript
	case langs.LangPython:
		return langs.LangPython
	case langs.LangNode:
		return langs.LangNode
	case langs.LangRuby:
		return langs.LangRuby
	case langs.LangLua:
		return langs.LangLua
	case langs.LangLuaJIT:
		return langs.LangLuaJIT
	case langs.LangGo:
		return langs.LangGo
	case langs.LangWasm:
		return langs.LangWasm
	}
	return string(b)
}

func (d *dec) bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) < 1 {
		d.fail("bool")
		return false
	}
	v := d.b[0] != 0
	d.b = d.b[1:]
	return v
}

// AppendGuestInvoke encodes the guest-hop invoke request.
func AppendGuestInvoke(dst []byte, req *api.GuestInvokeRequest) []byte {
	dst = appendString(dst, req.Function.Name)
	dst = appendString(dst, req.Function.Language)
	dst = appendString(dst, req.Function.Workload)
	dst = appendBytes(dst, req.Function.Source)
	dst = appendVarint(dst, int64(req.Scale))
	dst = appendBool(dst, req.Trace)
	return dst
}

// DecodeGuestInvoke decodes a api.FrameInvokeReq payload.
func DecodeGuestInvoke(b []byte) (api.GuestInvokeRequest, error) {
	d := dec{b: b}
	var req api.GuestInvokeRequest
	req.Function = faas.Function{
		Name:     d.string(),
		Language: d.ident(),
		Workload: d.string(),
		Source:   d.bytes(),
	}
	req.Scale = int(d.varint())
	req.Trace = d.bool()
	return req, d.err
}

// AppendInvokeResponse encodes an invoke response, including the full
// perfmon block the paper piggybacks on results. The optional trace
// tree rides as a JSON blob: traces are explicitly opt-in and off the
// hot path, so schema flexibility beats hand-rolled field codecs
// there.
func AppendInvokeResponse(dst []byte, resp *api.InvokeResponse) ([]byte, error) {
	dst = appendString(dst, resp.Output)
	dst = appendVarint(dst, resp.WallNs)
	dst = appendVarint(dst, resp.BootstrapNs)
	dst = appendVarint(dst, int64(resp.Perf.Wall))
	dst = appendUvarint(dst, resp.Perf.Instructions)
	dst = appendUvarint(dst, resp.Perf.Cycles)
	dst = appendUvarint(dst, resp.Perf.CacheRefs)
	dst = appendUvarint(dst, resp.Perf.CacheMisses)
	dst = appendUvarint(dst, resp.Perf.ContextSwitches)
	dst = appendUvarint(dst, resp.Perf.PageFaults)
	dst = appendUvarint(dst, resp.Perf.TEEExits)
	dst = appendString(dst, resp.Perf.Monitor)
	dst = appendBool(dst, resp.Secure)
	dst = appendString(dst, string(resp.Platform))
	dst = appendString(dst, resp.Host)
	dst = appendString(dst, resp.VM)
	if resp.Trace == nil {
		return appendBool(dst, false), nil
	}
	blob, err := json.Marshal(resp.Trace)
	if err != nil {
		return nil, fmt.Errorf("wire: encode trace: %w", err)
	}
	dst = appendBool(dst, true)
	return appendBytes(dst, blob), nil
}

// DecodeInvokeResponse decodes a api.FrameInvokeResp payload.
func DecodeInvokeResponse(b []byte) (api.InvokeResponse, error) {
	d := dec{b: b}
	var resp api.InvokeResponse
	resp.Output = d.string()
	resp.WallNs = d.varint()
	resp.BootstrapNs = d.varint()
	resp.Perf.Wall = time.Duration(d.varint())
	resp.Perf.Instructions = d.uvarint()
	resp.Perf.Cycles = d.uvarint()
	resp.Perf.CacheRefs = d.uvarint()
	resp.Perf.CacheMisses = d.uvarint()
	resp.Perf.ContextSwitches = d.uvarint()
	resp.Perf.PageFaults = d.uvarint()
	resp.Perf.TEEExits = d.uvarint()
	resp.Perf.Monitor = d.ident()
	resp.Secure = d.bool()
	resp.Platform = tee.Kind(d.ident())
	resp.Host = d.string()
	resp.VM = d.string()
	if d.bool() {
		blob := d.bytes()
		if d.err == nil {
			var span obs.SpanData
			if err := json.Unmarshal(blob, &span); err != nil {
				return resp, fmt.Errorf("wire: decode trace: %w", err)
			}
			resp.Trace = &span
		}
	}
	return resp, d.err
}

// AppendFrontInvoke encodes the front-door invoke (tenant + request).
func AppendFrontInvoke(dst []byte, ti *api.TenantedInvoke) []byte {
	dst = appendString(dst, ti.Tenant)
	dst = appendString(dst, ti.Req.Function)
	dst = appendVarint(dst, int64(ti.Req.Scale))
	dst = appendBool(dst, ti.Req.Secure)
	dst = appendString(dst, string(ti.Req.TEE))
	dst = appendBool(dst, ti.Req.Trace)
	return dst
}

// DecodeFrontInvoke decodes a api.FrameFrontInvokeReq payload.
func DecodeFrontInvoke(b []byte) (api.TenantedInvoke, error) {
	d := dec{b: b}
	var ti api.TenantedInvoke
	ti.Tenant = d.string()
	ti.Req.Function = d.string()
	ti.Req.Scale = int(d.varint())
	ti.Req.Secure = d.bool()
	ti.Req.TEE = tee.Kind(d.ident())
	ti.Req.Trace = d.bool()
	return ti, d.err
}

// AppendAttest encodes an attestation request. The tenant is empty on
// the guest hop and carries the caller's identity at the front door.
func AppendAttest(dst []byte, tenant string, req *api.AttestRequest) []byte {
	dst = appendString(dst, tenant)
	dst = appendString(dst, string(req.TEE))
	dst = appendBytes(dst, req.Nonce)
	return dst
}

// DecodeAttest decodes a api.FrameAttestReq payload.
func DecodeAttest(b []byte) (string, api.AttestRequest, error) {
	d := dec{b: b}
	tenant := d.string()
	var req api.AttestRequest
	req.TEE = tee.Kind(d.ident())
	req.Nonce = d.bytes()
	return tenant, req, d.err
}

// AppendAttestResp encodes an attestation response.
func AppendAttestResp(dst []byte, resp *api.AttestResponse) []byte {
	dst = appendBytes(dst, resp.Evidence)
	dst = appendVarint(dst, resp.AttestNs)
	return dst
}

// DecodeAttestResp decodes a api.FrameAttestResp payload.
func DecodeAttestResp(b []byte) (api.AttestResponse, error) {
	d := dec{b: b}
	var resp api.AttestResponse
	resp.Evidence = d.bytes()
	resp.AttestNs = d.varint()
	return resp, d.err
}

// AppendHealthResp encodes a health response detail string.
func AppendHealthResp(dst []byte, detail string) []byte {
	return appendString(dst, detail)
}

// DecodeHealthResp decodes a api.FrameHealthResp payload.
func DecodeHealthResp(b []byte) (string, error) {
	d := dec{b: b}
	s := d.string()
	return s, d.err
}

// AppendError encodes an error frame from the same envelope the HTTP
// surface serves, so the cberr taxonomy — code, layer, retryability,
// retry-after — crosses the hop bit-for-bit equivalently under both
// carriers.
func AppendError(dst []byte, err error) []byte {
	env := api.ErrorEnvelope(err)
	dst = appendString(dst, string(env.Code))
	dst = appendString(dst, string(env.Layer))
	dst = appendBool(dst, env.Retryable)
	dst = appendUvarint(dst, uint64(env.RetryAfterMS))
	dst = appendString(dst, env.Error)
	return dst
}

// DecodeError decodes a api.FrameError payload back into a *cberr.Error.
func DecodeError(b []byte) (error, error) {
	d := dec{b: b}
	code := d.string()
	layer := d.string()
	retryable := d.bool()
	retryAfterMS := d.uvarint()
	msg := d.string()
	if d.err != nil {
		return nil, d.err
	}
	var ce error = cberr.FromWire(cberr.Code(code), cberr.Layer(layer), retryable, msg)
	if retryAfterMS > 0 {
		ce = cberr.WithRetryAfter(ce, time.Duration(retryAfterMS)*time.Millisecond)
	}
	return ce, nil
}

// DecoderFor returns frame type t's request decoder — (tenant, request)
// from a payload, the tenant empty where the frame carries none — typed
// for a handler taking Req, or nil when t does not carry a Req, so a
// front door binding a handler to the wrong frame fails when built.
func DecoderFor[Req any](t Type) func([]byte) (string, Req, error) {
	var f any
	switch t {
	case api.FrameInvokeReq:
		f = func(b []byte) (string, api.GuestInvokeRequest, error) {
			req, err := DecodeGuestInvoke(b)
			return "", req, err
		}
	case api.FrameFrontInvokeReq:
		f = func(b []byte) (string, api.InvokeRequest, error) {
			ti, err := DecodeFrontInvoke(b)
			return ti.Tenant, ti.Req, err
		}
	case api.FrameAttestReq:
		f = DecodeAttest
	case api.FrameHealthReq, api.FrameObsReq:
		f = func([]byte) (string, struct{}, error) { return "", struct{}{}, nil }
	}
	d, _ := f.(func([]byte) (string, Req, error))
	return d
}

// EncoderFor is DecoderFor's response-side twin. Responses pass by
// value so a handler's result never escapes to the heap on its way
// into the (indirectly called) encoder.
func EncoderFor[Resp any](t Type) func([]byte, Resp) ([]byte, error) {
	var f any
	switch t {
	case api.FrameInvokeResp:
		f = func(dst []byte, resp api.InvokeResponse) ([]byte, error) {
			return AppendInvokeResponse(dst, &resp)
		}
	case api.FrameAttestResp:
		f = func(dst []byte, resp api.AttestResponse) ([]byte, error) {
			return AppendAttestResp(dst, &resp), nil
		}
	case api.FrameHealthResp:
		f = func(dst []byte, resp api.Health) ([]byte, error) {
			return AppendHealthResp(dst, resp.Status), nil
		}
	case api.FrameObsResp:
		// Obs snapshots ride as JSON, exactly what the HTTP surface
		// serves.
		f = func(dst []byte, snap obs.Snapshot) ([]byte, error) {
			blob, err := json.Marshal(snap)
			return append(dst, blob...), err
		}
	}
	e, _ := f.(func([]byte, Resp) ([]byte, error))
	return e
}
