package main

import (
	"context"
	"testing"
)

// TestColdstartReportDeterministic pins the headline acceptance
// property of -fig coldstart: the same seed renders a
// bit-identical report, every platform's warm restore is at least 3x
// cheaper than its cold boot, and the warm pool actually served the
// benchmark (hits > 0 is asserted structurally via the rows having a
// warm boot at all — the rendered metrics block is covered by the
// string equality).
func TestColdstartReportDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two full clusters")
	}
	ctx := context.Background()

	out1, rows, err := coldstartReport(ctx, 42, 16)
	if err != nil {
		t.Fatal(err)
	}
	out2, _, err := coldstartReport(ctx, 42, 16)
	if err != nil {
		t.Fatal(err)
	}
	if out1 != out2 {
		t.Errorf("same-seed reports differ:\n--- first ---\n%s\n--- second ---\n%s", out1, out2)
	}

	if len(rows) != 3 {
		t.Fatalf("got %d rows, want one per TEE", len(rows))
	}
	for _, r := range rows {
		if r.WarmBoot <= 0 || r.ColdBoot <= 0 {
			t.Errorf("%s: non-positive boot costs cold=%v warm=%v", r.Kind, r.ColdBoot, r.WarmBoot)
		}
		if r.ColdBoot < 3*r.WarmBoot {
			t.Errorf("%s: cold boot %v not >= 3x warm boot %v", r.Kind, r.ColdBoot, r.WarmBoot)
		}
	}

	// A different seed still satisfies the ratio bound (the costs are
	// model-derived, not sampled), guarding against seed-specific luck.
	_, rows2, err := coldstartReport(ctx, 7, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows2 {
		if r.ColdBoot < 3*r.WarmBoot {
			t.Errorf("seed 7 %s: cold boot %v not >= 3x warm boot %v", r.Kind, r.ColdBoot, r.WarmBoot)
		}
	}
}

// TestFigColdstartIsTheReport: `-fig coldstart` (the former -coldstart
// flag) prints exactly the report, and "all" does not include it.
func TestFigColdstartIsTheReport(t *testing.T) {
	want, _, err := coldstartReport(context.Background(), 7, 16)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runCaptured(t, "-fig", "coldstart", "-seed", "7")
	if err != nil || got != want {
		t.Errorf("-fig coldstart printed (err %v):\n%s\nwant:\n%s", err, got, want)
	}
}
