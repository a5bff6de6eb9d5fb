package tee

import (
	"math"
	"testing"
	"time"

	"confbench/internal/cpumodel"
)

// noiseGuest is a secure guest of a jittered model on stream.
func noiseGuest(stream uint64) *ModelGuest {
	cm := NormalCostModel()
	cm.JitterStd = 0.05
	return NewModelGuest(ModelGuestConfig{IDPrefix: "noise", Kind: KindTDX, Secure: true, Model: cm, Stream: stream})
}

// TestPriceIsAFunctionOfStreamAndKey: the same (stream, key) gives a
// bit-identical charge however often and in whatever order it is
// priced; another key or another stream gives another total.
func TestPriceIsAFunctionOfStreamAndKey(t *testing.T) {
	u := testUsage()
	base := cpumodel.XeonGold5515.Cost(u)
	stream := NoiseStream(1, "tdx", true)
	g, twin := noiseGuest(stream), noiseGuest(stream)
	key := NewKey("cpustress").Name("go").Num(4).Num(0)

	first := g.Price(u, base, key)
	for i := uint64(0); i < 10; i++ { // price other keys in between
		g.Price(u, base, key.Num(i))
	}
	if again, other := g.Price(u, base, key), twin.Price(u, base, key); again != first || other != first {
		t.Errorf("same (stream, key) priced %+v, then %+v, on a second guest %+v", first, again, other)
	}
	if c := g.Price(u, base, NewKey("cpustress").Name("go").Num(4).Num(1)); c.Total == first.Total {
		t.Errorf("another trial priced the same total %v", c.Total)
	}
	if c := noiseGuest(NoiseStream(2, "tdx", true)).Price(u, base, key); c.Total == first.Total {
		t.Errorf("another seed priced the same total %v", c.Total)
	}
	for _, s := range []uint64{NoiseStream(1, "tdx", false), NoiseStream(1, "tdx/buggy", true)} {
		if c := noiseGuest(s).Price(u, base, key); c.Total == first.Total {
			t.Errorf("stream %#x priced the same total %v as %#x", s, c.Total, stream)
		}
	}
	if NewKey("ab").Name("c") == NewKey("a").Name("bc") || NewKey("a").Num(1).Num(2) == NewKey("a").Num(2).Num(1) {
		t.Error("keys do not keep their parts apart")
	}
}

// TestDrawIsStandardNormal: over 100 000 keys the draws have mean 0
// and standard deviation 1 within 0.015 and 0.01 (about 4.7 and 4.5
// standard errors).
func TestDrawIsStandardNormal(t *testing.T) {
	const n = 100_000
	stream := NoiseStream(1, "sev-snp", false)
	var sum, sq float64
	for i := uint64(0); i < n; i++ {
		z := draw(stream, NewKey("sample").Num(i))
		if math.IsNaN(z) || math.IsInf(z, 0) {
			t.Fatalf("draw %d = %v", i, z)
		}
		sum += z
		sq += z * z
	}
	mean := sum / n
	sd := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean) > 0.015 || math.Abs(sd-1) > 0.01 {
		t.Errorf("draws: mean %.4f, sd %.4f; want 0 ± 0.015, 1 ± 0.01", mean, sd)
	}
}

// TestJitterClampHolds: whatever the draw, the total stays within ±4σ
// of the noise-free total, and a draw past 4σ lands on the bound.
func TestJitterClampHolds(t *testing.T) {
	u := testUsage()
	base := cpumodel.XeonGold5515.Cost(u)
	cm := NormalCostModel()
	cm.JitterStd = 0.05
	clean := base.Total()
	lo, hi := time.Duration(float64(clean)*(1-4*cm.JitterStd)), time.Duration(float64(clean)*(1+4*cm.JitterStd))
	if got := cm.price(u, base, -10).Total; got != lo {
		t.Errorf("draw -10σ priced %v, want the bound %v", got, lo)
	}
	if got := cm.price(u, base, 10).Total; got != hi {
		t.Errorf("draw +10σ priced %v, want the bound %v", got, hi)
	}
	g := noiseGuest(NoiseStream(3, "cca", true))
	for i := uint64(0); i < 10_000; i++ {
		if c := g.Price(u, base, NewKey("clamp").Num(i)); c.Total < lo || c.Total > hi {
			t.Fatalf("key %d priced %v outside [%v, %v]", i, c.Total, lo, hi)
		}
	}
	wide := cm
	wide.JitterStd = 0.5 // 1 - 4σ < 0: the 0.05 floor holds instead
	if got, want := wide.price(u, base, -10).Total, time.Duration(float64(clean)*0.05); got != want {
		t.Errorf("floored total %v, want %v", got, want)
	}
}
