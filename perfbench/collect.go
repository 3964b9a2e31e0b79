package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/strip"
	"repro/strip/obs"
)

// Everything the per-layer table needs from the engine is read from
// outside, as deltas between two readings taken at the edges of the
// measured window: the registry's exposition text (counters, gauges and
// histogram buckets), Stats, the Go runtime's counters and the process
// CPU clock.

// hist is one histogram's cumulative buckets, sum and count as exposed.
type hist struct {
	bounds []float64 // upper edges in exposed units, +Inf last
	cum    []uint64
	sum    float64
	count  uint64
}

// regSnap is one reading of a registry.
type regSnap struct {
	scalars map[string]float64
	hists   map[string]*hist
}

func readRegistry(reg *obs.Registry) regSnap {
	var buf bytes.Buffer
	_ = reg.WriteText(&buf) // a bytes.Buffer write cannot fail
	return parseExposition(buf.Bytes())
}

// parseExposition reads the Prometheus text format WriteText emits.
func parseExposition(text []byte) regSnap {
	s := regSnap{scalars: make(map[string]float64), hists: make(map[string]*hist)}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch {
		case strings.Contains(name, `_bucket{le="`):
			base, le, _ := strings.Cut(name, `_bucket{le="`)
			le = strings.TrimSuffix(le, `"}`)
			bound := math.Inf(1)
			if le != "+Inf" {
				bound, _ = strconv.ParseFloat(le, 64)
			}
			h := s.hists[base]
			if h == nil {
				h = &hist{}
				s.hists[base] = h
			}
			h.bounds = append(h.bounds, bound)
			h.cum = append(h.cum, uint64(v))
		case strings.HasSuffix(name, "_sum") && s.hists[strings.TrimSuffix(name, "_sum")] != nil:
			s.hists[strings.TrimSuffix(name, "_sum")].sum = v
		case strings.HasSuffix(name, "_count") && s.hists[strings.TrimSuffix(name, "_count")] != nil:
			s.hists[strings.TrimSuffix(name, "_count")].count = uint64(v)
		default:
			s.scalars[name] = v
		}
	}
	return s
}

// histDelta is what one histogram saw between two readings; a
// histogram missing from the later reading yields an empty one.
func histDelta(before, after regSnap, name string) hist {
	a, b := after.hists[name], before.hists[name]
	if a == nil {
		return hist{}
	}
	d := hist{bounds: a.bounds, cum: make([]uint64, len(a.cum)), sum: a.sum, count: a.count}
	copy(d.cum, a.cum)
	if b != nil && len(b.cum) == len(a.cum) {
		for i := range d.cum {
			d.cum[i] -= b.cum[i]
		}
		d.sum -= b.sum
		d.count -= b.count
	}
	return d
}

// mean in exposed units; 0 when the window is empty.
func (w hist) mean() float64 {
	if w.count == 0 {
		return 0
	}
	return w.sum / float64(w.count)
}

// quantile is the bucket upper edge at which the q-fraction of the
// window's observations is reached, the same snapping the engine's own
// Quantile uses; the +Inf bucket reports the last finite edge.
func (w hist) quantile(q float64) float64 {
	if w.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(w.count)))
	if rank < 1 {
		rank = 1
	}
	for i, c := range w.cum {
		if c >= rank {
			if math.IsInf(w.bounds[i], 1) && i > 0 {
				return w.bounds[i-1]
			}
			return w.bounds[i]
		}
	}
	return 0
}

func scalarDelta(before, after regSnap, name string) float64 {
	return after.scalars[name] - before.scalars[name]
}

// statsDelta subtracts the Stats counters the layer table reports.
func statsDelta(before, after strip.Stats) strip.Stats {
	return strip.Stats{
		UpdatesReceived:     after.UpdatesReceived - before.UpdatesReceived,
		UpdatesDropped:      after.UpdatesDropped - before.UpdatesDropped,
		UpdatesInstalled:    after.UpdatesInstalled - before.UpdatesInstalled,
		UpdatesSkipped:      after.UpdatesSkipped - before.UpdatesSkipped,
		UpdatesExpired:      after.UpdatesExpired - before.UpdatesExpired,
		UpdatesEvicted:      after.UpdatesEvicted - before.UpdatesEvicted,
		TxnsAbortedDeadline: after.TxnsAbortedDeadline - before.TxnsAbortedDeadline,
		TxnsFailed:          after.TxnsFailed - before.TxnsFailed,
	}
}

// procSnap is the process's CPU clock and the Go runtime's allocation
// and GC counters at one instant.
type procSnap struct {
	wall       time.Time
	cpu, sys   time.Duration
	allocBytes uint64
	allocObjs  uint64
	gcCycles   uint64
	gcPause    float64 // seconds, summed from the pause histogram
	// steal and ticks are the host's stolen and total CPU ticks from
	// /proc/stat: on a shared VM, stolen time is one source of
	// run-to-run noise in the latencies.
	steal, ticks uint64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF with a valid pointer cannot fail
	sys := time.Duration(ru.Stime.Nano())
	cpu := time.Duration(ru.Utime.Nano()) + sys
	ms := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		ms[i].Name = name
	}
	metrics.Read(ms)
	p := procSnap{wall: time.Now(), cpu: cpu, sys: sys}
	p.allocBytes = uint64Of(ms[0])
	p.allocObjs = uint64Of(ms[1])
	p.gcCycles = uint64Of(ms[2])
	if ms[3].Value.Kind() == metrics.KindFloat64Histogram {
		p.gcPause = histTotal(ms[3].Value.Float64Histogram())
	}
	p.steal, p.ticks = hostTicks()
	return p
}

// hostTicks reads the aggregate cpu line of /proc/stat; zeros where it
// cannot be read.
func hostTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

func stealPct(a, b procSnap) float64 {
	if b.ticks <= a.ticks {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.ticks-a.ticks)
}

func uint64Of(s metrics.Sample) uint64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}

// histTotal sums a runtime histogram at each bucket's midpoint (its
// lower edge for the open-ended last bucket). The runtime keeps only
// buckets, so the pause total is exact to within a bucket's width.
func histTotal(h *metrics.Float64Histogram) float64 {
	var total float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		v := (lo + hi) / 2
		if math.IsInf(hi, 1) {
			v = lo
		}
		if math.IsInf(lo, -1) {
			v = hi
		}
		total += v * float64(c)
	}
	return total
}

// cores is CPU seconds per wall second between two readings.
func cores(a, b procSnap) float64 {
	wall := b.wall.Sub(a.wall).Seconds()
	if wall <= 0 {
		return 0
	}
	return (b.cpu - a.cpu).Seconds() / wall
}
