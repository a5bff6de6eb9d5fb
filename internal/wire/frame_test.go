package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"confbench/internal/api"
)

func TestHeaderRoundTrip(t *testing.T) {
	payload := []byte("hello frames")
	b := AppendFrame(nil, api.FrameInvokeReq, 0xDEADBEEFCAFE, payload)
	if len(b) != HeaderSize+len(payload) {
		t.Fatalf("frame length = %d, want %d", len(b), HeaderSize+len(payload))
	}
	h, p, rest, err := DecodeFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != api.FrameInvokeReq || h.Corr != 0xDEADBEEFCAFE || h.Len != uint32(len(payload)) {
		t.Fatalf("header = %+v", h)
	}
	if !bytes.Equal(p, payload) || len(rest) != 0 {
		t.Fatalf("payload = %q rest = %q", p, rest)
	}
}

func TestParseHeaderErrors(t *testing.T) {
	valid := AppendHeader(nil, api.FrameHealthReq, 7, 0)
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"truncated", func(b []byte) []byte { return b[:HeaderSize-1] }, ErrTruncated},
		{"empty", func(b []byte) []byte { return nil }, ErrTruncated},
		{"bad magic", func(b []byte) []byte { b[0] = 'G'; return b }, ErrBadMagic},
		{"bad version", func(b []byte) []byte { b[2] = 99; return b }, ErrBadVersion},
		{"zero type", func(b []byte) []byte { b[3] = 0; return b }, ErrUnknownType},
		{"high type", func(b []byte) []byte { b[3] = byte(api.FrameError) + 1; return b }, ErrUnknownType},
		{"oversize", func(b []byte) []byte {
			b[13], b[14], b[15], b[16] = 0xFF, 0xFF, 0xFF, 0xFF
			return b
		}, ErrOversize},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mut(append([]byte(nil), valid...))
			if _, err := ParseHeader(b); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestDecodeFrameStream splits consecutive frames off one buffer
// without copying.
func TestDecodeFrameStream(t *testing.T) {
	b := AppendFrame(nil, api.FrameInvokeReq, 1, []byte("first"))
	b = AppendFrame(b, api.FrameInvokeResp, 2, []byte("second"))
	h1, p1, rest, err := DecodeFrame(b)
	if err != nil || h1.Corr != 1 || string(p1) != "first" {
		t.Fatalf("first frame: %+v %q %v", h1, p1, err)
	}
	h2, p2, rest, err := DecodeFrame(rest)
	if err != nil || h2.Corr != 2 || string(p2) != "second" {
		t.Fatalf("second frame: %+v %q %v", h2, p2, err)
	}
	if len(rest) != 0 {
		t.Fatalf("trailing bytes: %q", rest)
	}
	// A frame whose declared length exceeds the available bytes is
	// truncated, not panicking or allocating.
	short := AppendHeader(nil, api.FrameObsResp, 3, 1000)
	if _, _, _, err := DecodeFrame(short); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short frame err = %v", err)
	}
}

func TestReadFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(AppendFrame(nil, api.FrameAttestReq, 42, []byte("evidence please")))
	h, payload, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer PutBuf(payload)
	if h.Type != api.FrameAttestReq || h.Corr != 42 || string(payload) != "evidence please" {
		t.Fatalf("frame = %+v %q", h, payload)
	}
	// A stream that dies mid-payload is a truncated frame.
	var cut bytes.Buffer
	full := AppendFrame(nil, api.FrameInvokeReq, 1, []byte("cut me off"))
	cut.Write(full[:len(full)-3])
	if _, _, err := ReadFrame(&cut); !errors.Is(err, ErrTruncated) {
		t.Fatalf("mid-payload err = %v", err)
	}
	// A stream that dies mid-header surfaces the raw read error.
	if _, _, err := ReadFrame(bytes.NewReader(full[:5])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("mid-header err = %v", err)
	}
}

func TestTypeStringAndValid(t *testing.T) {
	for ft := api.FrameInvokeReq; ft <= api.FrameError; ft++ {
		if !ft.Valid() {
			t.Fatalf("%d should be valid", ft)
		}
		if s := ft.String(); s == "" || s[0] == 'u' && s != "unknown(0)" && len(s) > 8 && s[:7] == "unknown" {
			t.Fatalf("%d renders %q", ft, s)
		}
	}
	if Type(0).Valid() || Type(api.FrameError+1).Valid() {
		t.Fatal("out-of-range types report valid")
	}
	if got := Type(200).String(); got != "unknown(200)" {
		t.Fatalf("unknown type renders %q", got)
	}
}

func TestBufPoolRecycles(t *testing.T) {
	b := GetBuf(100)
	if len(b) != 100 {
		t.Fatalf("len = %d", len(b))
	}
	PutBuf(b)
	if b2 := GetBuf(0); len(b2) != 0 {
		t.Fatalf("append-target buffer has len %d", len(b2))
	}
	// Oversized buffers are dropped, not pooled.
	PutBuf(make([]byte, poolBufCap+1))
	PutBuf(nil) // must not panic
}
