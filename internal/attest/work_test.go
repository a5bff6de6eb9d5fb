package attest

import (
	"crypto"
	"crypto/elliptic"
	"testing"
	"time"

	"confbench/internal/cpumodel"
	"confbench/internal/meter"
)

// TestMeteredKeepsTheWallApart: Metered returns what its body metered
// with the wall time filled in, and a price reads the work and the
// infrastructure latency, never the wall time.
func TestMeteredKeepsTheWallApart(t *testing.T) {
	v, u, err := Metered(func(u *Usage) (int, error) {
		u.Sign(elliptic.P256())
		u.Hash(crypto.SHA384, 100)
		u.Infra = time.Millisecond
		time.Sleep(time.Millisecond)
		return 7, nil
	})
	if v != 7 || err != nil || u.Wall < time.Millisecond {
		t.Fatalf("Metered = %d, %+v, %v", v, u, err)
	}
	if got, want := u.Work.Get(meter.CPUOps), uint64(opsSignP256+100*opsPerSHA384Byte); got != want {
		t.Errorf("metered %d ops, want %d", got, want)
	}
	slow := u
	slow.Wall *= 1000
	host := cpumodel.XeonGold5515
	if PriceOnHost(host, slow) != PriceOnHost(host, u) || PriceOnHost(host, u).Infra != time.Millisecond {
		t.Errorf("price %+v moves with the wall time or drops the infrastructure", PriceOnHost(host, slow))
	}
}
