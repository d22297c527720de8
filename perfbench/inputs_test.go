package main

import (
	"slices"
	"testing"
	"time"
)

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(7, 100, 5000)
	b := poissonSchedule(7, 100, 5000)
	if !slices.Equal(a, b) {
		t.Fatal("one seed gave two schedules")
	}
	if slices.Equal(a, poissonSchedule(8, 100, 5000)) {
		t.Fatal("two seeds gave one schedule")
	}
	if !slices.IsSorted(a) {
		t.Fatal("offsets are not increasing")
	}
	// 5000 arrivals at 100/s span about 50s; the mean gap's standard
	// error is 1/sqrt(5000) ≈ 1.4%, so 5% is a loose bound.
	span := a[len(a)-1]
	if span < 47500*time.Millisecond || span > 52500*time.Millisecond {
		t.Errorf("5000 arrivals at 100/s span %v, want about 50s", span)
	}
}

func TestImagesAreSeededAndNonZero(t *testing.T) {
	a, err := images(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := images(3, 4)
	c, _ := images(4, 4)
	for i := range a {
		if len(a[i]) != 3*32*32 {
			t.Fatalf("image %d has %d values", i, len(a[i]))
		}
		if !slices.Equal(a[i], b[i]) {
			t.Fatalf("image %d differs between runs of one seed", i)
		}
		if slices.Equal(a[i], c[i]) {
			t.Fatalf("image %d equal under two seeds", i)
		}
		if !slices.ContainsFunc(a[i], func(v float32) bool { return v != 0 }) {
			t.Fatalf("image %d is all zeros", i)
		}
	}
}
