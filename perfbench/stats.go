package main

import (
	"math"
	"sort"
	"time"
)

// dist is one timing distribution: the samples a percentile is taken over.
// Every percentile the benchmark prints carries the count it came from.
type dist struct {
	vals   []float64
	sorted bool
}

func (d *dist) add(v float64) {
	d.vals = append(d.vals, v)
	d.sorted = false
}

func (d *dist) addDur(v time.Duration, unit time.Duration) {
	d.add(float64(v) / float64(unit))
}

func (d *dist) n() int { return len(d.vals) }

// pct returns the nearest-rank p-th percentile (0 < p <= 100): the smallest
// sample with at least p% of the samples at or below it. An empty
// distribution reads 0; its count (n) says so.
func (d *dist) pct(p float64) float64 {
	if len(d.vals) == 0 {
		return 0
	}
	if !d.sorted {
		sort.Float64s(d.vals)
		d.sorted = true
	}
	rank := int(math.Ceil(p / 100 * float64(len(d.vals))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(d.vals) {
		rank = len(d.vals)
	}
	return d.vals[rank-1]
}

// beyond counts the samples strictly above the p-th percentile: the guide
// for whether a tail percentile is supported (ten or more beyond it).
func (d *dist) beyond(p float64) int {
	v := d.pct(p)
	i := sort.SearchFloat64s(d.vals, v)
	for i < len(d.vals) && d.vals[i] <= v {
		i++
	}
	return len(d.vals) - i
}

func (d *dist) mean() float64 {
	if len(d.vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range d.vals {
		s += v
	}
	return s / float64(len(d.vals))
}

// ratio divides num by its base den, reading 0 when the base is 0 (the
// printed base then shows the ratio had nothing to divide by).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// interval is a half-open [start, end) span of time in nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of the window [lo, hi) the union of ivs covers.
// Overlapping and nested intervals count once; parts outside the window are
// clipped. ivs is reordered.
func covered(lo, hi int64, ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	cur := lo // everything before cur is already counted
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - covered(parent.start, parent.end, children)
}
