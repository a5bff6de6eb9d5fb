package wire

import (
	"errors"
	"io"
	"testing"

	"confbench/internal/api"
	"confbench/internal/faas"
)

// fuzzTypedErrs is the closed set of errors frame decoding may return.
// Anything else (or a panic, caught by the fuzz driver itself) is a
// finding.
var fuzzTypedErrs = []error{
	ErrBadMagic, ErrBadVersion, ErrTruncated, ErrOversize, ErrUnknownType,
}

func isTyped(err error) bool {
	for _, te := range fuzzTypedErrs {
		if errors.Is(err, te) {
			return true
		}
	}
	return false
}

// FuzzWireFrame drives the full hostile-input surface: frame splitting
// (DecodeFrame), streaming reads (ReadFrame), and every payload
// decoder. The invariants: never panic, never return an untyped frame
// error, never allocate beyond the declared input (the dec cursor
// validates lengths against the remaining bytes before any make), and
// agree between the streaming and in-memory paths.
func FuzzWireFrame(f *testing.F) {
	// Seed with one well-formed frame per type plus classic corruptions;
	// the committed corpus under testdata/fuzz extends these.
	f.Add(AppendFrame(nil, api.FrameInvokeReq, 1, AppendGuestInvoke(nil, &api.GuestInvokeRequest{
		Function: faas.Function{Name: "fib-go", Language: "go", Workload: "fib", Source: []byte("src")},
		Scale:    22, Trace: true,
	})))
	f.Add(AppendFrame(nil, api.FrameFrontInvokeReq, 2, AppendFrontInvoke(nil, &api.TenantedInvoke{
		Tenant: "acme", Req: api.InvokeRequest{Function: "primes-rust", Scale: 7, Secure: true},
	})))
	f.Add(AppendFrame(nil, api.FrameAttestReq, 3, AppendAttest(nil, "t", &api.AttestRequest{Nonce: []byte{1, 2}})))
	f.Add(AppendFrame(nil, api.FrameHealthResp, 4, AppendHealthResp(nil, "ok")))
	f.Add(AppendFrame(nil, api.FrameError, 5, AppendError(nil, errors.New("boom"))))
	f.Add([]byte{Magic0, Magic1})                                                // truncated header
	f.Add([]byte("GET /v1/invoke HTTP/1.1\r\n"))                                 // HTTP, not wire
	f.Add(AppendHeader(nil, api.FrameObsResp, 6, MaxPayload))                    // oversized declared payload
	f.Add(append(AppendHeader(nil, api.FrameInvokeReq, 7, 3), 0xFF, 0xFF, 0xFF)) // hostile varints

	f.Fuzz(func(t *testing.T, b []byte) {
		h, payload, rest, err := DecodeFrame(b)
		if err != nil {
			if !isTyped(err) {
				t.Fatalf("untyped frame error: %v", err)
			}
			return
		}
		if int(h.Len) != len(payload) || len(payload) > MaxPayload {
			t.Fatalf("header/payload disagree: len=%d payload=%d", h.Len, len(payload))
		}
		if HeaderSize+len(payload)+len(rest) != len(b) {
			t.Fatalf("frame accounting: %d+%d+%d != %d", HeaderSize, len(payload), len(rest), len(b))
		}

		// The streaming path must agree with the in-memory split.
		rh, rp, rerr := ReadFrame(newSliceReader(b))
		if rerr != nil {
			t.Fatalf("ReadFrame disagrees with DecodeFrame: %v", rerr)
		}
		if rh != h || string(rp) != string(payload) {
			t.Fatalf("stream/in-memory mismatch: %+v vs %+v", rh, h)
		}
		PutBuf(rp)

		// Payload decoders must fail typed (or succeed), never panic —
		// even when fed a payload framed as the wrong type.
		decodePayloadEveryWay(t, payload)
	})
}

func decodePayloadEveryWay(t *testing.T, payload []byte) {
	t.Helper()
	check := func(err error) {
		if err != nil && !isTyped(err) {
			t.Fatalf("untyped payload error: %v", err)
		}
	}
	_, err := DecodeGuestInvoke(payload)
	check(err)
	_, err = DecodeFrontInvoke(payload)
	check(err)
	_, _, err = DecodeAttest(payload)
	check(err)
	_, err = DecodeAttestResp(payload)
	check(err)
	_, err = DecodeHealthResp(payload)
	check(err)
	_, err = DecodeError(payload)
	check(err)
	// The invoke-response decoder may additionally surface an
	// encoding/json error from the optional trace blob; any error class
	// is acceptable there, a panic is not.
	_, _ = DecodeInvokeResponse(payload)
}

// sliceReader is an io.Reader over b without bytes.Reader's Seek
// methods, keeping ReadFrame on its io.ReadFull path.
type sliceReader struct{ b []byte }

func newSliceReader(b []byte) *sliceReader { return &sliceReader{b: b} }

func (r *sliceReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}
