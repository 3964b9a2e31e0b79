package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/strip"
)

// metric is one reported figure. note says what it was computed over:
// a sample count for a timing, a base for a ratio.
type metric struct {
	name, unit string
	value      float64
	note       string
}

func (p *pass) inWindow(due int64) bool {
	at := p.start + due
	return at >= p.ws && at < p.we
}

func (p *pass) windowSeconds() float64 { return time.Duration(p.we - p.ws).Seconds() }

// visibleSamples is due-to-visible for the updates due in the window
// that a consumer saw installed (skipped updates never become visible).
func (p *pass) visibleSamples(vis []int64) []int64 {
	var s []int64
	for i, u := range p.in.updates {
		if vis[i] > 0 && p.inWindow(u.due) {
			s = append(s, vis[i]-(p.start+u.due))
		}
	}
	return s
}

func (p *pass) visible(vis []int64) dist { return newDist(p.visibleSamples(vis)) }

// txnWindow is the accounting of the transactions due in the window.
type txnWindow struct {
	submitted, committed, fresh uint64
	reads, staleReads           uint64
	lat                         []int64 // due to Exec return, committed only
}

func (w txnWindow) commit() dist { return newDist(w.lat) }

func (w *txnWindow) add(o txnWindow) {
	w.submitted += o.submitted
	w.committed += o.committed
	w.fresh += o.fresh
	w.reads += o.reads
	w.staleReads += o.staleReads
	w.lat = append(w.lat, o.lat...)
}

func (p *pass) txnWindow() txnWindow {
	var w txnWindow
	for i, t := range p.in.txns {
		if !p.inWindow(t.due) {
			continue
		}
		r := &p.txns[i]
		w.submitted++
		w.reads += uint64(r.reads)
		w.staleReads += uint64(r.staleReads)
		if r.res != strip.Committed {
			continue
		}
		w.committed++
		if !r.stale {
			w.fresh++
		}
		w.lat = append(w.lat, r.done-(p.start+t.due))
	}
	return w
}

// ms converts nanoseconds to milliseconds, sec nanoseconds to seconds,
// us seconds to microseconds.
func ms(ns int64) float64    { return float64(ns) / 1e6 }
func sec(ns int64) float64   { return float64(ns) / 1e9 }
func us(sec float64) float64 { return sec * 1e6 }

func pct(d dist, q float64) string {
	return fmt.Sprintf("n=%d, %d beyond", d.n(), d.beyond(q))
}

// endToEnd is what a user of the engine sees, over the windows of the
// untraced passes taken together: CPU seconds over their wall seconds,
// percentiles of their pooled samples, ratios of their summed counts.
func endToEnd(ps []*pass) []metric {
	var setups, vis []int64
	var tw txnWindow
	var sent, lost uint64
	for _, p := range ps {
		for _, s := range p.setups {
			setups = append(setups, int64(s.Total))
		}
		vis = append(vis, p.visibleSamples(p.visP)...)
		tw.add(p.txnWindow())
		sent += p.final.sent
		lost += p.final.dropped + p.final.evicted
	}
	setup, visD, commit := newDist(setups), newDist(vis), tw.commit()
	delivered := ratio{sent - lost, sent}
	committed, fresh := ratio{tw.committed, tw.submitted}, ratio{tw.fresh, tw.committed}
	return []metric{
		{"setup_s", "s", sec(setup.quantile(0.5)), fmt.Sprintf("median of %d set-ups", setup.n())},
		{"update_visible_p50_ms", "ms", ms(visD.quantile(0.5)), pct(visD, 0.5)},
		{"update_delivered_ratio", "ratio", delivered.value(), "(sent - dropped - evicted)/sent " + delivered.String()},
		{"txn_psuccess", "ratio", committed.value(), "committed/submitted " + committed.String()},
		{"txn_commit_p50_ms", "ms", ms(commit.quantile(0.5)), pct(commit, 0.5)},
		{"txn_fresh_ratio", "ratio", fresh.value(), "committed without a stale read/committed " + fresh.String()},
	}
}

// demoted are end-to-end figures that do not repeat within their bound
// from run to run (the p99s and cpu_cores), or exist on one workload
// only (replica visibility). They are reported with the per-layer
// table, from the untraced pass.
func demoted(p *pass) []metric {
	vis, commit := p.visible(p.visP), p.txnWindow().commit()
	rvis := dist{}
	if p.visR != nil {
		rvis = p.visible(p.visR)
	}
	sys := (p.b.proc.sys - p.a.proc.sys).Seconds() / (p.b.proc.cpu - p.a.proc.cpu).Seconds()
	return []metric{
		{"cpu_cores", "cores", cores(p.a.proc, p.b.proc), fmt.Sprintf("process CPU s per wall s in the window, %.0f%% in the kernel", 100*sys)},
		{"update_visible_p99_ms", "ms", ms(vis.quantile(0.99)), pct(vis, 0.99)},
		{"txn_commit_p99_ms", "ms", ms(commit.quantile(0.99)), pct(commit, 0.99)},
		{"replica_visible_p50_ms", "ms", ms(rvis.quantile(0.5)), pct(rvis, 0.5)},
		{"replica_visible_p99_ms", "ms", ms(rvis.quantile(0.99)), pct(rvis, 0.99)},
	}
}

// perLayer is the layer table from a traced pass; untraced supplies the
// CPU baseline for the tracing overhead.
func perLayer(untraced, p *pass) []metric {
	secs := p.windowSeconds()
	st := statsDelta(p.a.stats, p.b.stats)
	h := func(name string) hist { return histDelta(p.a.reg, p.b.reg, name) }
	rh := func(name string) hist { return histDelta(p.a.rreg, p.b.rreg, name) }

	r := p.rates()
	inWindow := func(s span) bool { return s.start >= p.ws && s.start < p.we }
	spans := p.spans()
	self, count := selfTimes(spans, inWindow)
	selfMean := func(name string) float64 {
		if count[name] == 0 {
			return 0
		}
		return float64(self[name]) / float64(count[name]) / 1e3
	}
	var syncs []int64
	for _, s := range spans {
		if s.name == "wal.sync" && inWindow(s) {
			syncs = append(syncs, s.end-s.start)
		}
	}
	syncDist := newDist(syncs)
	tw := p.txnWindow()
	var keys uint64
	for i, t := range p.in.txns {
		if x := &p.txns[i]; x.res == strip.Committed && x.done >= p.ws && x.done < p.we {
			keys += uint64(distinct(t.writes))
		}
	}
	pipe := newDist(pipeline(p))
	dec, qw, inst, trig := h("strip_pipeline_decode_seconds"), h("strip_pipeline_queue_wait_seconds"),
		h("strip_pipeline_install_seconds"), h("strip_pipeline_trigger_seconds")
	backlog := h("strip_uu_backlog_updates")
	walApp, pub := h("strip_pipeline_wal_append_seconds"), h("strip_pipeline_repl_publish_seconds")
	rapply, rwait := rh("strip_pipeline_replica_apply_seconds"), rh("strip_pipeline_queue_wait_seconds")
	var replay, bootstrap []int64
	for _, s := range p.setups {
		replay = append(replay, int64(s.Replay))
		bootstrap = append(bootstrap, int64(s.Bootstrap))
	}
	var bytesPerKey float64
	if keys > 0 {
		bytesPerKey = float64(p.b.walBytes-p.a.walBytes) / float64(keys)
	}
	// Allocation and GC figures come from the untraced pass: the traced
	// one also counts the benchmark's span recording and the engine's
	// trace ring.
	ua, ub, uachieved := untraced.a.proc, untraced.b.proc, untraced.rates().achieved
	perUpdate := func(v uint64) float64 {
		if uachieved == 0 {
			return 0
		}
		return float64(v) / float64(uachieved)
	}
	overhead := 0.0
	if c := cores(untraced.a.proc, untraced.b.proc); c > 0 {
		overhead = (cores(p.a.proc, p.b.proc)/c - 1) * 100
	}
	return append(demoted(untraced), []metric{
		{"feedgen.offered_ups", "1/s", float64(r.offered) / secs, "updates due in the window"},
		{"feedgen.achieved_ups", "1/s", float64(r.achieved) / secs, "lines written in the window"},
		{"feedgen.late_max_ms", "ms", ms(r.late), "worst flush start after its tick"},
		{"feedgen.flush_mean_us", "us", newDist(r.flushSpans).mean() / 1e3, fmt.Sprintf("n=%d", len(r.flushSpans))},
		{"feedgen.txn_offered_tps", "1/s", float64(r.txnOffered) / secs, "transactions due in the window"},
		{"feedgen.txn_achieved_tps", "1/s", float64(r.txnAchieved) / secs, "Exec calls made in the window"},
		{"feedgen.txn_late_max_ms", "ms", ms(p.dispatchLate), "worst submission after its due time"},
		{"strip.decode.count", "count", float64(dec.count), ""},
		{"strip.decode.busy_s", "s", dec.sum, ""},
		{"strip.decode.mean_us", "us", us(dec.mean()), ""},
		{"strip.ingest.received", "count", float64(st.UpdatesReceived), ""},
		{"strip.ingest.dropped", "count", float64(st.UpdatesDropped), ""},
		{"uqueue.wait_mean_us", "us", us(qw.mean()), fmt.Sprintf("n=%d", qw.count)},
		{"uqueue.wait_p99_us", "us", us(qw.quantile(0.99)), "bucket edge"},
		{"uqueue.backlog_p50", "count", backlog.quantile(0.5), "bucket edge"},
		{"uqueue.backlog_p99", "count", backlog.quantile(0.99), "bucket edge"},
		{"uqueue.skipped", "count", float64(st.UpdatesSkipped), ""},
		{"uqueue.expired", "count", float64(st.UpdatesExpired), ""},
		{"uqueue.evicted", "count", float64(st.UpdatesEvicted), ""},
		{"uqueue.useful_ratio", "ratio", ratio{st.UpdatesInstalled, st.UpdatesReceived}.value(), "installed/received " + ratio{st.UpdatesInstalled, st.UpdatesReceived}.String()},
		{"strip.install.count", "count", float64(inst.count), ""},
		{"strip.install.busy_s", "s", inst.sum, ""},
		{"strip.install.mean_us", "us", us(inst.mean()), ""},
		{"strip.trigger.mean_us", "us", us(trig.mean()), fmt.Sprintf("n=%d", trig.count)},
		{"strip.pipeline.p50_ms", "ms", ms(pipe.quantile(0.5)), pct(pipe, 0.5)},
		{"strip.pipeline.p99_ms", "ms", ms(pipe.quantile(0.99)), pct(pipe, 0.99)},
		{"strip.txn.wait_mean_us", "us", selfMean("txn.exec"), fmt.Sprintf("n=%d", count["txn.exec"])},
		{"strip.txn.func_mean_us", "us", selfMean("txn.body"), fmt.Sprintf("n=%d", count["txn.body"])},
		{"strip.txn.read_mean_us", "us", selfMean("txn.read"), fmt.Sprintf("n=%d", count["txn.read"])},
		{"strip.txn.read_stale_ratio", "ratio", ratio{tw.staleReads, tw.reads}.value(), "stale reads/reads " + ratio{tw.staleReads, tw.reads}.String()},
		{"strip.txn.aborted_deadline", "count", float64(st.TxnsAbortedDeadline), ""},
		{"strip.txn.failed", "count", float64(st.TxnsFailed), ""},
		{"strip.wal.append_count", "count", float64(walApp.count), ""},
		{"strip.wal.append_mean_us", "us", us(walApp.mean()), ""},
		{"strip.wal.sync_mean_us", "us", syncDist.mean() / 1e3, fmt.Sprintf("n=%d", syncDist.n())},
		{"strip.wal.sync_p99_us", "us", float64(syncDist.quantile(0.99)) / 1e3, pct(syncDist, 0.99)},
		{"strip.wal.bytes_per_key", "B", bytesPerKey, fmt.Sprintf("%d keys committed", keys)},
		{"strip.wal.replay_s", "s", sec(newDist(replay).quantile(0.5)), fmt.Sprintf("median of %d set-ups", len(replay))},
		{"repl.publish.count", "count", float64(pub.count), ""},
		{"repl.publish.mean_us", "us", us(pub.mean()), ""},
		{"repl.primary.events", "count", scalarDelta(p.a.reg, p.b.reg, "strip_repl_primary_events_total"), ""},
		{"repl.bootstrap_s", "s", sec(newDist(bootstrap).quantile(0.5)), fmt.Sprintf("median of %d set-ups", len(bootstrap))},
		{"repl.apply.count", "count", float64(rapply.count), ""},
		{"repl.apply.mean_us", "us", us(rapply.mean()), ""},
		{"repl.replica.wait_mean_us", "us", us(rwait.mean()), ""},
		{"repl.replica.lag_updates_end", "count", float64(p.lagUpdatesEnd), ""},
		{"repl.replica.seq_gap_end", "count", float64(p.seqGapEnd), ""},
		{"runtime.alloc_bytes_per_update", "B", perUpdate(ub.allocBytes - ua.allocBytes), "untraced pass"},
		{"runtime.allocs_per_update", "count", perUpdate(ub.allocObjs - ua.allocObjs), "untraced pass"},
		{"runtime.gc_cycles", "count", float64(ub.gcCycles - ua.gcCycles), "untraced pass"},
		{"runtime.gc_pause_ms", "ms", (ub.gcPause - ua.gcPause) * 1e3, "untraced pass"},
		{"obs.trace_overhead_pct", "%", overhead, "traced over untraced cpu_cores"},
		{"host.steal_pct", "%", stealPct(p.a.proc, p.b.proc), "CPU time the hypervisor gave to other guests"},
	}...)
}

// streamRates is what each open-loop stream offered and achieved in the
// window.
type streamRates struct {
	offered, achieved       int // update lines due / written
	txnOffered, txnAchieved int // transactions due / submitted
	late                    int64
	flushSpans              []int64
}

func (p *pass) rates() streamRates {
	var r streamRates
	for _, u := range p.in.updates {
		if p.inWindow(u.due) {
			r.offered++
		}
	}
	for _, f := range p.flushes {
		if f.start >= p.ws && f.start < p.we {
			r.achieved += f.lines
			r.late = max(r.late, f.late)
			r.flushSpans = append(r.flushSpans, f.end-f.start)
		}
	}
	for i, t := range p.in.txns {
		if p.inWindow(t.due) {
			r.txnOffered++
		}
		if s := p.txns[i].submit; s >= p.ws && s < p.we {
			r.txnAchieved++
		}
	}
	return r
}

// rateTolerance is how far a stream's achieved rate may be from its
// offered rate before the run is invalid: the generator, not the
// engine, would then be what was measured. Over a 20 s window it
// tolerates a one-second stall at the window's end, but not a
// generator that falls behind for good.
const rateTolerance = 0.05

func checkRates(p *pass) error {
	r := p.rates()
	for _, s := range []struct {
		what              string
		offered, achieved int
	}{{"update", r.offered, r.achieved}, {"transaction", r.txnOffered, r.txnAchieved}} {
		if math.Abs(float64(s.achieved-s.offered)) > rateTolerance*float64(s.offered) {
			return fmt.Errorf("%s stream achieved %d in the window, offered %d", s.what, s.achieved, s.offered)
		}
	}
	return nil
}

// pipeline is flush-to-visible on the primary: the program's share of
// update_visible, without the generator's tick.
func pipeline(p *pass) []int64 {
	var s []int64
	for i, u := range p.in.updates {
		if p.visP[i] > 0 && p.inWindow(u.due) {
			s = append(s, p.visP[i]-p.sent[i])
		}
	}
	return s
}

func distinct(keys []int32) int {
	s := slices.Clone(keys)
	slices.Sort(s)
	return len(slices.Compact(s))
}

// spans assembles the spans the benchmark recorded around its own calls
// into the engine: feed flushes, each transaction's Exec with its body
// as child and each Tx.Read under the body, the WAL syncs and the
// replica's bootstrap.
func (p *pass) spans() []span {
	var out []span
	for i, f := range p.flushes {
		out = append(out, span{name: "feed.flush", start: f.start, end: f.end, parent: -1, req: int64(i)})
	}
	for i := range p.txns {
		r := &p.txns[i]
		if r.submit == 0 {
			continue
		}
		exec := len(out)
		out = append(out, span{name: "txn.exec", start: r.submit, end: r.done, parent: -1, req: int64(i)})
		if r.bodyStart == 0 {
			continue
		}
		body := len(out)
		out = append(out, span{name: "txn.body", start: r.bodyStart, end: r.bodyEnd, parent: exec, req: int64(i)})
		for _, rs := range r.readSpans {
			out = append(out, span{name: "txn.read", start: rs[0], end: rs[1], parent: body, req: int64(i)})
		}
	}
	for i, s := range p.syncs {
		out = append(out, span{name: "wal.sync", start: s[0], end: s[1], parent: -1, req: int64(i)})
	}
	if e := p.env; e.bootstrap > 0 {
		out = append(out, span{name: "repl.bootstrap", start: e.bootStart, end: e.bootStart + int64(e.bootstrap), parent: -1})
	}
	return out
}
