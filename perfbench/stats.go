package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// The arithmetic the report is built from. Everything here is a pure
// function of its inputs so bench_test.go can pin it on synthetic data.

// dist is a sorted set of exact samples (nanoseconds) of one timing.
type dist struct {
	sorted []int64
}

func newDist(samples []int64) dist {
	s := slices.Clone(samples)
	slices.Sort(s)
	return dist{sorted: s}
}

// n is the sample count behind every percentile of the distribution.
func (d dist) n() int { return len(d.sorted) }

// quantile is the nearest-rank q-quantile: the smallest sample with at
// least q of the samples at or below it. An empty distribution has no
// quantiles; callers check n first and report 0.
func (d dist) quantile(q float64) int64 {
	if len(d.sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(d.sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(d.sorted) {
		rank = len(d.sorted)
	}
	return d.sorted[rank-1]
}

// beyond counts the samples strictly above the q-quantile: a percentile
// is reported as supported only with at least ten of them.
func (d dist) beyond(q float64) int {
	v := d.quantile(q)
	i, found := slices.BinarySearch(d.sorted, v)
	for found && i < len(d.sorted) && d.sorted[i] == v {
		i++
	}
	return len(d.sorted) - i
}

// mean of the samples, 0 when empty.
func (d dist) mean() float64 {
	if len(d.sorted) == 0 {
		return 0
	}
	var sum float64
	for _, v := range d.sorted {
		sum += float64(v)
	}
	return sum / float64(len(d.sorted))
}

// ratio is a share with its base kept beside it, so the report can
// state what it was taken over. An empty base yields 0.
type ratio struct {
	num, den uint64
}

func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return float64(r.num) / float64(r.den)
}

func (r ratio) String() string { return fmt.Sprintf("%d/%d", r.num, r.den) }

// counters is the update accounting the engine reports through Stats.
type counters struct {
	sent, received, dropped                    uint64
	installed, skipped, expired, evicted, qlen uint64
}

// reconcile checks the two identities that must hold once the stream
// has drained: every line sent was either received or dropped at the
// ingest buffer, and every received update left the queue through
// exactly one door.
func reconcile(c counters) error {
	if c.sent != c.received+c.dropped {
		return fmt.Errorf("sent %d != received %d + dropped %d", c.sent, c.received, c.dropped)
	}
	if c.qlen != 0 {
		return fmt.Errorf("queue not drained: %d updates left", c.qlen)
	}
	if out := c.installed + c.skipped + c.expired + c.evicted; c.received != out {
		return fmt.Errorf("received %d != installed %d + skipped %d + expired %d + evicted %d",
			c.received, c.installed, c.skipped, c.expired, c.evicted)
	}
	return nil
}

// span is one timed call the benchmark made into the engine. parent is
// the index of the enclosing span in the same slice, -1 for a root; req
// groups the spans of one request.
type span struct {
	name       string
	start, end int64
	parent     int
	req        int64
}

// selfTimes sums, per span name, the self time of the spans keep
// accepts: each one's duration minus the part of its interval covered
// by its direct children. Children of one parent may overlap each
// other; the covered part is their union, clipped to the parent. parent
// indexes the whole slice, so a kept span's children count even when
// keep rejects them. count is the number of kept spans of each name, the
// base of a mean self time.
func selfTimes(spans []span, keep func(span) bool) (self map[string]int64, count map[string]int) {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	self, count = make(map[string]int64), make(map[string]int)
	for i, s := range spans {
		if keep(s) {
			self[s.name] += (s.end - s.start) - covered(s.start, s.end, kids[i])
			count[s.name]++
		}
	}
	return self, count
}

// covered is the length of the union of intervals, clipped to [lo, hi).
func covered(lo, hi int64, ivs [][2]int64) int64 {
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}
