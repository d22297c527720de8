package report

import (
	"strings"
	"testing"

	"splitcnn/internal/memobs"
)

func fixtureTimeline() *memobs.MemTimeline {
	return &memobs.MemTimeline{
		Source: "compiled", Passes: 2,
		PlannedSlabBytes: 4096, MeasuredHighWater: 3100,
		Samples: []memobs.MemSample{
			{Step: 0, Name: "conv1", Kind: "conv2d", MeasuredBytes: 2048, PlannedBytes: 2048, SlabRefBytes: 2048, ScratchBytes: 0},
			{Step: 1, Name: "relu1", Kind: "relu", MeasuredBytes: 3100, PlannedBytes: 3072, SlabRefBytes: 3072, ScratchBytes: 28},
			{Step: 2, Name: "fc", Kind: "matmul", MeasuredBytes: 1024, PlannedBytes: 1024, SlabRefBytes: 1024, ScratchBytes: 0},
		},
	}
}

// TestMeasuredMemReport renders a well-formed timeline and checks the
// overlay carries measured, planned-live, and scratch series plus the
// planned-slab high-water line, and that the returned plotted peak is
// the timeline's measured maximum (the value the cmd layer cross-checks
// against the mem.measured_high_water_bytes gauge).
func TestMeasuredMemReport(t *testing.T) {
	tl := fixtureTimeline()
	data, peak, err := MeasuredMemReport("memtest", tl)
	if err != nil {
		t.Fatalf("MeasuredMemReport: %v", err)
	}
	if peak != 3100 {
		t.Fatalf("plotted peak = %d, want 3100", peak)
	}
	if len(data.Charts) == 0 {
		t.Fatal("no charts rendered")
	}
	ch := data.Charts[0]
	names := map[string]bool{}
	for _, s := range ch.Series {
		names[s.Name] = true
	}
	for _, want := range []string{"measured", "planned live", "scratch"} {
		found := false
		for n := range names {
			if strings.Contains(strings.ToLower(n), want) {
				found = true
			}
		}
		if !found {
			t.Fatalf("chart is missing a %q series (have %v)", want, names)
		}
	}
	if ch.HighWater != 4096 {
		t.Fatalf("high-water line = %g, want planned slab 4096", ch.HighWater)
	}
}

// TestMeasuredMemReportRejectsCorruption: the builder must refuse to
// render a tampered timeline — the report page self-verifies rather
// than plotting garbage.
func TestMeasuredMemReportRejectsCorruption(t *testing.T) {
	tl := fixtureTimeline()
	tl.Samples[1].MeasuredBytes = tl.MeasuredHighWater + 512
	if _, _, err := MeasuredMemReport("memtest", tl); err == nil {
		t.Fatal("MeasuredMemReport rendered a corrupted timeline")
	}

	tl = fixtureTimeline()
	tl.Samples[2].Step = 99
	if _, _, err := MeasuredMemReport("memtest", tl); err == nil {
		t.Fatal("MeasuredMemReport rendered a timeline with broken step order")
	}

	tl = fixtureTimeline()
	tl.PlannedSlabBytes = 0
	if _, _, err := MeasuredMemReport("memtest", tl); err == nil {
		t.Fatal("MeasuredMemReport rendered a timeline with no plan")
	}

	empty := &memobs.MemTimeline{Source: "compiled"}
	if _, _, err := MeasuredMemReport("memtest", empty); err == nil {
		t.Fatal("MeasuredMemReport rendered an empty timeline")
	}
}
