package api

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"confbench/internal/cberr"
	"confbench/internal/obs"
	"confbench/internal/perfmon"
	"confbench/internal/tee"
)

// edgeType is one edge body type: a fresh target and a seeded one (every
// field set, pointers included) for the merge semantics of decoding
// into a value that already holds data.
type edgeType struct {
	fresh, seeded func() any
}

var edgeTypes = []edgeType{
	{func() any { return new(InvokeRequest) }, func() any {
		return &InvokeRequest{Function: "seed", Scale: 3, Secure: true, TEE: tee.KindCCA, Trace: true}
	}},
	{func() any { return new(InvokeResponse) }, func() any {
		return &InvokeResponse{Output: "seed", WallNs: 9, Host: "h", VM: "v",
			Perf:  perfmon.Stats{Cycles: 4, Monitor: "m"},
			Trace: &obs.SpanData{Name: "s", Attrs: map[string]string{"k": "v"}}}
	}},
	{func() any { return new(AsyncSubmitResponse) }, func() any {
		return &AsyncSubmitResponse{ID: "seed", Status: AsyncPending}
	}},
	{func() any { return new(AsyncResult) }, func() any {
		return &AsyncResult{ID: "seed", Status: AsyncPending,
			Response: &InvokeResponse{Output: "o"}, Error: &ErrorResponse{Error: "e"}}
	}},
	{func() any { return new(ErrorResponse) }, func() any {
		return &ErrorResponse{Error: "e", Code: cberr.CodeUnavailable, Retryable: true, RetryAfterMS: 5}
	}},
}

// edgeValues covers every optional field set and unset, and the string
// bytes encoding/json escapes.
func edgeValues() []any {
	resp := InvokeResponse{
		Output: "sum=42 <ok> & \"done\"\n\t\x01\x7f \u00e9 \u2028\u2029 \xff end", WallNs: 1_234_567, BootstrapNs: -5,
		Perf: perfmon.Stats{Wall: 3 * time.Millisecond, Instructions: 1 << 63, Cycles: 1<<64 - 1,
			CacheRefs: 7, CacheMisses: 1, ContextSwitches: 2, PageFaults: 3, TEEExits: 4, Monitor: perfmon.NamePerfStat},
		Secure: true, Platform: tee.KindSEV, Host: "sev-snp-host-1", VM: "vm-7",
	}
	traced := resp
	traced.Trace = &obs.SpanData{Name: "invoke <x>", Layer: "gateway", DurNs: 10,
		Attrs:    map[string]string{"b": "2", "a": "&"},
		Children: []*obs.SpanData{{Name: "exec", Layer: "vm", OffsetNs: 1, DurNs: 2}}}
	errEnv := ErrorResponse{Error: "shed: <tenant>", Code: cberr.CodeUnavailable, Layer: cberr.LayerFront,
		Retryable: true, RetryAfterMS: 250}
	return []any{
		InvokeRequest{},
		InvokeRequest{Function: "hot", Scale: -3, Secure: true, TEE: tee.KindTDX, Trace: true},
		&InvokeRequest{Function: "fn-\u00e9"},
		InvokeResponse{},
		resp,
		traced,
		AsyncSubmitResponse{},
		AsyncSubmitResponse{ID: "inv-17", Status: AsyncPending},
		AsyncResult{ID: "inv-1", Status: AsyncPending},
		AsyncResult{ID: "inv-2", Status: AsyncDone, Response: &traced},
		AsyncResult{ID: "inv-3", Status: AsyncError, Error: &errEnv},
		ErrorResponse{},
		errEnv,
	}
}

func TestEdgeEncodersMatchEncodingJSON(t *testing.T) {
	for _, v := range edgeValues() {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, ok, err := appendEdge(nil, v)
		if !ok || err != nil {
			t.Fatalf("%T: ok=%v err=%v", v, ok, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%T:\n got %s\nwant %s", v, got, want)
		}

		rec, old := httptest.NewRecorder(), httptest.NewRecorder()
		WriteJSON(rec, http.StatusAccepted, v)
		old.Header().Set("Content-Type", "application/json")
		old.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(old).Encode(v)
		if !bytes.Equal(rec.Body.Bytes(), old.Body.Bytes()) || rec.Code != old.Code ||
			!reflect.DeepEqual(rec.Header(), old.Header()) {
			t.Errorf("WriteJSON(%T) = %d %v %q, encoding/json wrote %d %v %q", v,
				rec.Code, rec.Header(), rec.Body.Bytes(), old.Code, old.Header(), old.Body.Bytes())
		}
	}
}

func TestEdgeDecodersTakeWhatTheEncodersWrite(t *testing.T) {
	for _, v := range edgeValues() {
		b, _, _ := appendEdge(nil, v)
		typed := reflect.New(reflect.Indirect(reflect.ValueOf(v)).Type()).Interface()
		std := reflect.New(reflect.Indirect(reflect.ValueOf(v)).Type()).Interface()
		if !parseEdge(append(b, '\n'), typed, false) {
			t.Fatalf("%T: typed decoder refused its own encoding %s", v, b)
		}
		if err := json.Unmarshal(b, std); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(typed, std) {
			t.Errorf("%T: typed %+v, encoding/json %+v", v, typed, std)
		}
	}
}

// TestEdgeDecodeForeignJSON: a body in any other form than the
// canonical one goes to encoding/json, and decodes (or fails) exactly
// as it did before the typed decoders.
func TestEdgeDecodeForeignJSON(t *testing.T) {
	cases := []struct {
		target func() any
		body   string
	}{
		{func() any { return new(InvokeRequest) }, `{"secure":true,"function":"fn"}`},
		{func() any { return new(InvokeRequest) }, `{ "function": "fn", "secure": true }`},
		{func() any { return new(InvokeRequest) }, `{"Function":"fn","secure":true}`},
		{func() any { return new(InvokeRequest) }, `{"function":"fn","secure":true,"extra":[1,2]}`},
		{func() any { return new(InvokeRequest) }, `{"function":"f\ud83d\ude00","secure":false}`},
		{func() any { return new(InvokeRequest) }, `{"function":"f\ud800","secure":false}`},
		{func() any { return new(InvokeRequest) }, `{"function":null,"secure":true}`},
		{func() any { return new(InvokeRequest) }, `{"function":"fn","scale":1.0,"secure":true}`},
		{func() any { return new(InvokeRequest) }, `{"function":"fn","scale":99999999999999999999,"secure":true}`},
		{func() any { return new(InvokeRequest) }, `{"function":"fn","secure":true} trailing`},
		{func() any { return new(InvokeRequest) }, `{"function":"fn","secure":true}{}`},
		{func() any { return new(InvokeRequest) }, "{\"function\":\"f\xffn\",\"secure\":true}"},
		{func() any { return new(InvokeResponse) }, `{"output":"o","wall_ns":1,"bootstrap_ns":0,"perf":{"wall":1,"instructions":0,"cycles":0,"cache_refs":0,"cache_misses":0,"context_switches":0,"page_faults":0,"tee_exits":0,"monitor":""},"secure":false,"platform":"tdx","trace":null}`},
		{func() any { return new(InvokeResponse) }, `{"output":"o","wall_ns":1,"bootstrap_ns":0,"perf":{"cycles":3},"secure":false,"platform":"tdx"}`},
		{func() any { return new(InvokeResponse) }, `{"output":"o","wall_ns":-0,"bootstrap_ns":0,"perf":{"wall":1,"instructions":-1,"cycles":0,"cache_refs":0,"cache_misses":0,"context_switches":0,"page_faults":0,"tee_exits":0,"monitor":""},"secure":false,"platform":"tdx"}`},
		{func() any { return new(AsyncResult) }, `{"id":"a","status":"done","response":null}`},
		{func() any { return new(AsyncResult) }, `{"status":"done","id":"a"}`},
		{func() any { return new(AsyncSubmitResponse) }, `{"id":"a\/b\u0041","status":"pending"}`},
		{func() any { return new(AsyncSubmitResponse) }, "\t{\"id\":\"a\",\"status\":\"pending\"}"},
		{func() any { return new(ErrorResponse) }, `{"error":"x","code":"unavailable","retryable":"yes"}`},
		{func() any { return new(ErrorResponse) }, `{"error":"x","code":"unavailable","retryable":true,"retry_after_ms":5`},
		{func() any { return new(ErrorResponse) }, `not json`},
		{func() any { return new(ErrorResponse) }, ``},
	}
	for _, c := range cases {
		typed, std := c.target(), c.target()
		errTyped, errStd := unmarshalEdge([]byte(c.body), typed), json.Unmarshal([]byte(c.body), std)
		if (errTyped == nil) != (errStd == nil) || (errStd != nil && errTyped.Error() != errStd.Error()) {
			t.Errorf("%s: err %v, encoding/json %v", c.body, errTyped, errStd)
		}
		if !reflect.DeepEqual(typed, std) {
			t.Errorf("%s: decoded %+v, encoding/json %+v", c.body, typed, std)
		}
		typed, std = c.target(), c.target()
		errTyped = ReadJSON(strings.NewReader(c.body), int64(len(c.body)), typed)
		errStd = json.NewDecoder(strings.NewReader(c.body)).Decode(std)
		if (errTyped == nil) != (errStd == nil) || (errStd != nil && errTyped.Error() != errStd.Error()) {
			t.Errorf("ReadJSON %s: err %v, json.Decoder %v", c.body, errTyped, errStd)
		}
		if !reflect.DeepEqual(typed, std) {
			t.Errorf("ReadJSON %s: decoded %+v, json.Decoder %+v", c.body, typed, std)
		}
	}
}

// failingReader fails every read with err, as a broken connection's
// body does.
type failingReader struct{ err error }

func (r failingReader) Read([]byte) (int, error) { return 0, r.err }

// TestReadJSONShortBody: a body that ends or breaks before its declared
// length fails, or succeeds, as json.Decoder over it would.
func TestReadJSONShortBody(t *testing.T) {
	body := `{"function":"fn","secure":true}`
	for _, r := range []func() io.Reader{
		func() io.Reader { return strings.NewReader(body[:10]) },
		func() io.Reader { return strings.NewReader(body) },
		func() io.Reader { return io.MultiReader(strings.NewReader(body[:10]), failingReader{io.ErrClosedPipe}) },
		func() io.Reader { return io.MultiReader(strings.NewReader(body), failingReader{io.ErrClosedPipe}) },
	} {
		var typed, std InvokeRequest
		errTyped := ReadJSON(r(), int64(len(body)+5), &typed)
		errStd := json.NewDecoder(r()).Decode(&std)
		if (errTyped == nil) != (errStd == nil) || typed != std {
			t.Errorf("ReadJSON = %+v, %v; json.Decoder = %+v, %v", typed, errTyped, std, errStd)
		}
	}
}

// FuzzEdgeJSON diffs the typed codecs against encoding/json: the typed
// encoding of any value encoding/json decodes from the input is
// byte-identical to json.Marshal's and decodes back through the typed
// decoder; and whenever the typed decoder accepts the input, into a
// fresh target or a seeded one, as a whole body or as the first value
// of a stream, it yields what encoding/json yields.
func FuzzEdgeJSON(f *testing.F) {
	for _, v := range edgeValues() {
		b, _, _ := appendEdge(nil, v)
		for sel, ty := range edgeTypes {
			if reflect.TypeOf(ty.fresh()) == reflect.PtrTo(reflect.Indirect(reflect.ValueOf(v)).Type()) {
				f.Add(byte(sel), b)
			}
		}
	}
	f.Fuzz(func(t *testing.T, sel byte, data []byte) {
		ty := edgeTypes[int(sel)%len(edgeTypes)]
		if v := ty.fresh(); json.Unmarshal(data, v) == nil {
			val := reflect.ValueOf(v).Elem().Interface()
			want, err := json.Marshal(val)
			if err != nil {
				t.Fatal(err)
			}
			got, ok, err := appendEdge(nil, val)
			if !ok || err != nil || !bytes.Equal(got, want) {
				t.Fatalf("typed encode of %+v:\n got %s (ok=%v err=%v)\nwant %s", val, got, ok, err, want)
			}
			typed, std := ty.fresh(), ty.fresh()
			if !parseEdge(got, typed, false) {
				t.Fatalf("typed decoder refused the typed encoding %s", got)
			}
			if err := json.Unmarshal(got, std); err != nil || !reflect.DeepEqual(typed, std) {
				t.Fatalf("decode of %s: typed %+v, encoding/json %+v (%v)", got, typed, std, err)
			}
		}
		for _, target := range []func() any{ty.fresh, ty.seeded} {
			typed, std := target(), target()
			if parseEdge(data, typed, false) {
				if err := json.Unmarshal(data, std); err != nil || !reflect.DeepEqual(typed, std) {
					t.Fatalf("typed decoder accepted %q as %+v; encoding/json: %+v, %v", data, typed, std, err)
				}
			}
			typed, std = target(), target()
			if parseEdge(data, typed, true) {
				if err := json.NewDecoder(bytes.NewReader(data)).Decode(std); err != nil || !reflect.DeepEqual(typed, std) {
					t.Fatalf("typed decoder accepted stream %q as %+v; json.Decoder: %+v, %v", data, typed, std, err)
				}
			}
		}
	})
}
