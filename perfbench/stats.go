package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// percentile with fewer is the value of a handful of outliers, not a rate.
const minBeyond = 10

// Samples is a latency sample set. A failed operation is recorded as +Inf,
// so it sorts above every success and counts as missing any latency limit.
type Samples struct {
	v      []float64
	sorted bool
}

// Add records one successful operation's duration.
func (s *Samples) Add(d time.Duration) { s.AddMS(float64(d) / float64(time.Millisecond)) }

// AddMS records one successful operation's duration in milliseconds.
func (s *Samples) AddMS(ms float64) { s.v = append(s.v, ms); s.sorted = false }

// Fail records a failed operation.
func (s *Samples) Fail() { s.v = append(s.v, math.Inf(1)); s.sorted = false }

// Len is the sample count, failures included.
func (s *Samples) Len() int { return len(s.v) }

// Percentile returns the nearest-rank q-quantile (0 < q < 1) in
// milliseconds. It refuses, with an error naming the sample count, when fewer
// than minBeyond samples lie above the rank.
func (s *Samples) Percentile(q float64) (float64, error) {
	n := len(s.v)
	rank := int(math.Ceil(q*float64(n) - 1e-9)) // 0.99*1000 must rank 990
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples above it, have %d of n=%d",
			100*q, minBeyond, max(n-rank, 0), n)
	}
	if !s.sorted {
		sort.Float64s(s.v)
		s.sorted = true
	}
	return s.v[rank-1], nil
}

// median returns the middle value of xs (mean of the two middle values for
// an even count). xs must be non-empty; it is not modified.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}
