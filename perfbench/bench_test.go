package main

import (
	"strings"
	"testing"
)

func TestQuantileNearestRankAndSupport(t *testing.T) {
	var s []int64
	for i := 1000; i >= 1; i-- { // unsorted input
		s = append(s, int64(i))
	}
	d := newDist(s)
	if d.n() != 1000 {
		t.Fatalf("n = %d, want 1000", d.n())
	}
	for _, c := range []struct {
		q          float64
		want       int64
		wantBeyond int
	}{
		{0.5, 500, 500},
		{0.99, 990, 10},
		{0.999, 999, 1},
		{1, 1000, 0},
		{0, 1, 999},
	} {
		if got := d.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %d, want %d", c.q, got, c.want)
		}
		if got := d.beyond(c.q); got != c.wantBeyond {
			t.Errorf("beyond(%v) = %d, want %d", c.q, got, c.wantBeyond)
		}
	}
	if got := d.mean(); got != 500.5 {
		t.Errorf("mean = %v, want 500.5", got)
	}
}

func TestQuantileTiesAndEmpty(t *testing.T) {
	d := newDist([]int64{5, 5, 5, 5, 9})
	if got := d.quantile(0.5); got != 5 {
		t.Errorf("p50 = %d, want 5", got)
	}
	if got := d.beyond(0.5); got != 1 {
		t.Errorf("beyond p50 = %d, want 1 (ties at the quantile are not beyond it)", got)
	}
	var empty dist
	if empty.n() != 0 || empty.quantile(0.5) != 0 || empty.mean() != 0 {
		t.Error("empty distribution must report zeros")
	}
}

func TestRatioKeepsItsBase(t *testing.T) {
	r := ratio{3, 4}
	if r.value() != 0.75 || r.String() != "3/4" {
		t.Errorf("ratio{3,4} = %v %q", r.value(), r.String())
	}
	if (ratio{0, 0}).value() != 0 {
		t.Error("a ratio over an empty base must be 0")
	}
}

func TestReconcile(t *testing.T) {
	ok := counters{sent: 100, received: 97, dropped: 3, installed: 90, skipped: 4, expired: 2, evicted: 1}
	if err := reconcile(ok); err != nil {
		t.Fatalf("balanced counters rejected: %v", err)
	}
	for name, c := range map[string]counters{
		"lost on the wire":  {sent: 100, received: 96, dropped: 3, installed: 89, skipped: 4, expired: 2, evicted: 1},
		"lost in the queue": {sent: 100, received: 97, dropped: 3, installed: 89, skipped: 4, expired: 2, evicted: 1},
		"not drained":       {sent: 100, received: 97, dropped: 3, installed: 89, skipped: 4, expired: 2, evicted: 1, qlen: 1},
	} {
		if reconcile(c) == nil {
			t.Errorf("%s: unbalanced counters accepted", name)
		}
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	spans := []span{
		{name: "txn.exec", start: 0, end: 100, parent: -1, req: 1},
		{name: "txn.body", start: 20, end: 90, parent: 0, req: 1},
		{name: "txn.read", start: 30, end: 40, parent: 1, req: 1},
		{name: "txn.read", start: 35, end: 50, parent: 1, req: 1}, // overlaps the first read
		{name: "txn.read", start: 85, end: 95, parent: 1, req: 1}, // runs past its parent
		{name: "txn.exec", start: 200, end: 210, parent: -1, req: 2},
	}
	self, count := selfTimes(spans, func(span) bool { return true })
	// exec: 100 - 70 of body, plus 10 with no child.
	if self["txn.exec"] != 40 {
		t.Errorf("exec self = %d, want 40", self["txn.exec"])
	}
	// body: 70 minus the union of reads inside it, [30,50) and [85,90).
	if self["txn.body"] != 45 {
		t.Errorf("body self = %d, want 45", self["txn.body"])
	}
	if self["txn.read"] != 35 {
		t.Errorf("read self = %d, want 35", self["txn.read"])
	}
	if count["txn.exec"] != 2 || count["txn.read"] != 3 {
		t.Errorf("counts = %v", count)
	}
}

// Spans before the window are left out of the sums, but they stay in
// the slice their children's parent indexes point into.
func TestSelfTimeInWindow(t *testing.T) {
	spans := []span{
		{name: "feed.flush", start: 0, end: 5, parent: -1, req: 0},
		{name: "txn.exec", start: 10, end: 60, parent: -1, req: 1},
		{name: "txn.body", start: 20, end: 50, parent: 1, req: 1},
		{name: "txn.exec", start: 100, end: 200, parent: -1, req: 2},
		{name: "txn.body", start: 110, end: 190, parent: 3, req: 2},
		{name: "txn.read", start: 120, end: 130, parent: 4, req: 2},
		{name: "feed.flush", start: 210, end: 215, parent: -1, req: 1},
	}
	self, count := selfTimes(spans, func(s span) bool { return s.start >= 100 && s.start < 210 })
	for name, want := range map[string]int64{"txn.exec": 20, "txn.body": 70, "txn.read": 10, "feed.flush": 0} {
		if self[name] != want {
			t.Errorf("%s self = %d, want %d", name, self[name], want)
		}
	}
	for name, want := range map[string]int{"txn.exec": 1, "txn.body": 1, "txn.read": 1, "feed.flush": 0} {
		if count[name] != want {
			t.Errorf("%s count = %d, want %d", name, count[name], want)
		}
	}
}

const exposition = `# HELP strip_pipeline_install_seconds latency of the install pipeline stage
# TYPE strip_pipeline_install_seconds histogram
strip_pipeline_install_seconds_bucket{le="1e-06"} 10
strip_pipeline_install_seconds_bucket{le="2.5e-06"} 60
strip_pipeline_install_seconds_bucket{le="5e-06"} 100
strip_pipeline_install_seconds_bucket{le="+Inf"} 100
strip_pipeline_install_seconds_sum 0.0002
strip_pipeline_install_seconds_count 100
# TYPE strip_updates_received_total counter
strip_updates_received_total 100
`

func TestRegistryDeltas(t *testing.T) {
	before := parseExposition([]byte(exposition))
	after := parseExposition([]byte(strings.NewReplacer(
		`{le="1e-06"} 10`, `{le="1e-06"} 10`,
		`{le="2.5e-06"} 60`, `{le="2.5e-06"} 60`,
		`{le="5e-06"} 100`, `{le="5e-06"} 200`,
		`{le="+Inf"} 100`, `{le="+Inf"} 300`,
		"_sum 0.0002", "_sum 0.0012",
		"_count 100", "_count 300",
		"received_total 100", "received_total 400",
	).Replace(exposition)))
	h := histDelta(before, after, "strip_pipeline_install_seconds")
	if h.count != 200 {
		t.Fatalf("count delta = %d, want 200", h.count)
	}
	if m := h.mean(); m < 4.99e-6 || m > 5.01e-6 {
		t.Errorf("mean = %g, want 5e-6 (sum/count, not a bucket edge)", m)
	}
	// Half of the window's observations fell in (2.5µs, 5µs], half past
	// the last finite edge, which is what the +Inf bucket reports.
	if q := h.quantile(0.5); q != 5e-6 {
		t.Errorf("p50 = %g, want 5e-06", q)
	}
	if q := h.quantile(0.99); q != 5e-6 {
		t.Errorf("p99 = %g, want the last finite edge 5e-06", q)
	}
	if d := scalarDelta(before, after, "strip_updates_received_total"); d != 300 {
		t.Errorf("counter delta = %v, want 300", d)
	}
	if e := histDelta(before, after, "missing"); e.count != 0 || e.mean() != 0 || e.quantile(0.5) != 0 {
		t.Error("a missing histogram must read as empty")
	}
}

func TestAppendLineRoundTrips(t *testing.T) {
	got := string(appendLine(nil, "v042", 1760680000123456789, 12345))
	if got != "v042 1760680000123456789 12345\n" {
		t.Errorf("line = %q", got)
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = appendLine(buf[:0], "v042", 1760680000123456789, 12345) }); n != 0 {
		t.Errorf("appendLine allocates %v times per line", n)
	}
}
