package api

import (
	"encoding/json"
	"reflect"
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
