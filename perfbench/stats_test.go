package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	var s Samples
	for i := 1; i <= 999; i++ {
		s.AddMS(float64(i))
	}
	_, err := s.Percentile(0.99)
	if err == nil || !strings.Contains(err.Error(), "n=999") {
		t.Fatalf("p99 of 999 samples: err = %v, want a refusal naming n=999", err)
	}
	s.AddMS(1000)
	v, err := s.Percentile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want nearest rank 990", v)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s Samples
	for _, ms := range []float64{5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20} {
		s.AddMS(ms)
	}
	if v, err := s.Percentile(0.5); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := s.Percentile(0.51); err == nil {
		t.Fatal("p51 of 20 samples has 9 above it; want a refusal")
	}
}

func TestFailuresSortAsInfinity(t *testing.T) {
	var s Samples
	for i := 0; i < 20; i++ {
		s.Add(time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		s.Fail()
	}
	if s.Len() != 40 {
		t.Fatalf("Len = %d, want 40 (failures count as samples)", s.Len())
	}
	v, err := s.Percentile(0.6)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(v, 1) {
		t.Fatalf("p60 with 20 of 40 failed = %v, want +Inf", v)
	}
	m := metrics{}
	m.set("x", v, "ms")
	if m["x"].Value != math.MaxFloat64 {
		t.Fatalf("an infinite percentile reports %v, want the largest finite float", m["x"].Value)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median odd = %v", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Fatalf("median even = %v", got)
	}
	if xs[0] != 4 {
		t.Fatal("median reordered its input")
	}
}
