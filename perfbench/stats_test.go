package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRankWithCount(t *testing.T) {
	var d dist
	if got := d.pct(50); got != 0 || d.n() != 0 {
		t.Fatalf("empty: pct %v n %d, want 0 0", got, d.n())
	}
	for _, v := range []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10} {
		d.add(v)
	}
	cases := []struct {
		p      float64
		want   float64
		beyond int
	}{
		{50, 5, 5},  // rank ceil(5) = 5th smallest
		{90, 9, 1},  // rank 9
		{99, 10, 0}, // rank ceil(9.9) = 10: the maximum, nothing beyond
		{100, 10, 0},
		{1, 1, 9},
	}
	for _, c := range cases {
		if got := d.pct(c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
		if got := d.beyond(c.p); got != c.beyond {
			t.Errorf("beyond p%v = %d, want %d", c.p, got, c.beyond)
		}
	}
	if d.n() != 10 {
		t.Errorf("n = %d, want 10", d.n())
	}

	// Ties: every sample equal to the percentile counts as at-or-below it.
	var ties dist
	for _, v := range []float64{1, 2, 2, 2, 3} {
		ties.add(v)
	}
	if got, b := ties.pct(50), ties.beyond(50); got != 2 || b != 1 {
		t.Errorf("ties: p50 %v beyond %d, want 2 and 1", got, b)
	}

	// A p99 over 1000 samples has exactly ten beyond it.
	var big dist
	for i := 1; i <= 1000; i++ {
		big.add(float64(i))
	}
	if got, b := big.pct(99), big.beyond(99); got != 990 || b != 10 {
		t.Errorf("1000 samples: p99 %v beyond %d, want 990 and 10", got, b)
	}
	// Adding after a percentile re-sorts.
	big.add(0)
	if got := big.pct(0.05); got != 0 {
		t.Errorf("after add: min %v, want 0", got)
	}
}

func TestDistDurationsAndMean(t *testing.T) {
	var d dist
	d.addDur(1500*time.Microsecond, time.Millisecond)
	d.addDur(500*time.Microsecond, time.Millisecond)
	if got := d.mean(); got != 1 {
		t.Errorf("mean %v ms, want 1", got)
	}
	var empty dist
	if empty.mean() != 0 {
		t.Errorf("empty mean %v, want 0", empty.mean())
	}
}

func TestSelfTimeUnderOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping counted once", []interval{{10, 40}, {30, 60}}, 50},
		{"nested", []interval{{10, 90}, {20, 30}, {40, 50}}, 20},
		{"unsorted with overlap", []interval{{70, 80}, {10, 30}, {25, 35}}, 65},
		{"clipped at both edges", []interval{{-50, 10}, {95, 300}}, 85},
		{"entirely outside", []interval{{-20, -10}, {100, 120}}, 100},
		{"touching", []interval{{0, 50}, {50, 100}}, 0},
		{"fully covered by parallel sends", []interval{{0, 100}, {0, 60}, {5, 100}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, append([]interval(nil), c.children...)); got != c.want {
			t.Errorf("%s: self %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRatioKeepsItsBase(t *testing.T) {
	if got := ratio(10, 4); got != 2.5 {
		t.Errorf("ratio(10,4) = %v", got)
	}
	// A zero base reads 0, never Inf or NaN (the JSON result must encode).
	if got := ratio(10, 0); got != 0 {
		t.Errorf("ratio(10,0) = %v, want 0", got)
	}
	if got := ratio(0, 0); got != 0 {
		t.Errorf("ratio(0,0) = %v, want 0", got)
	}
}

func TestReconcileTolerance(t *testing.T) {
	ms := int64(time.Millisecond)
	cases := []struct {
		dur, gap int64
		ok       bool
	}{
		{10 * ms, 0, true},
		{10 * ms, int64(reconcileFloor), true},
		{10 * ms, int64(reconcileFloor) + int64(reconcileSlack*float64(10*ms)), true},
		{10 * ms, int64(reconcileFloor) + int64(reconcileSlack*float64(10*ms)) + 1, false},
		{100 * ms, 20 * ms, false},
	}
	for _, c := range cases {
		if got := reconciles(c.dur, c.gap); got != c.ok {
			t.Errorf("reconciles(%d, %d) = %v, want %v", c.dur, c.gap, got, c.ok)
		}
	}
}

func TestSpanTreeSelfAndReconcile(t *testing.T) {
	us := int64(time.Microsecond)
	// One transaction: root 0..1000µs, children cover 0..400 and 450..1000
	// (50µs gap, within tolerance); a send under the first child.
	spans := []span{
		{id: 1, start: 0, end: 1000 * us, name: spTxn},
		{id: 2, parent: 1, start: 0, end: 400 * us, name: spRead},
		{id: 3, parent: 2, start: 10 * us, end: 390 * us, name: spSend},
		{id: 4, parent: 1, start: 450 * us, end: 1000 * us, name: spCommit},
		// A second transaction whose children leave 500µs of 1000 uncovered.
		{id: 5, start: 2000 * us, end: 3000 * us, name: spTxn},
		{id: 6, parent: 5, start: 2000 * us, end: 2500 * us, name: spCommit},
	}
	tree := newSpanTree(spans)
	if got := tree.self(spans[0]); got != 50*us {
		t.Errorf("root self %d, want %d", got, 50*us)
	}
	if got := tree.self(spans[1]); got != 20*us {
		t.Errorf("read self %d, want %d", got, 20*us)
	}
	if !tree.hasChild(2, spSend) || tree.hasChild(4, spSend) {
		t.Errorf("hasChild wrong")
	}
	ok, total, uncovered := tree.reconcileWindow(0, 10000*us)
	if ok != 1 || total != 2 || uncovered.n() != 2 {
		t.Errorf("reconcile: %d/%d (n=%d), want 1/2", ok, total, uncovered.n())
	}
	if ok, total, _ := tree.reconcileWindow(1500*us, 10000*us); ok != 0 || total != 1 {
		t.Errorf("window: %d/%d, want 0/1", ok, total)
	}
}
