package main

import (
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/strip"
)

// spec is one workload: the offered load and the engine configuration
// it runs against. Every workload has 1000 views, half of them High,
// one feed connection, and an open-loop feed and transaction stream.
type spec struct {
	name       string
	updateRate float64 // updates/s offered on the feed connection
	txnRate    float64 // transactions/s offered
	policy     strip.Policy
	maxAge     time.Duration
	coalesce   bool
	onStale    strip.StaleAction
	// compute is the deterministic busy loop each transaction body runs
	// after its reads, in iterations of spin.
	compute int
	// writesMax > 0 makes each transaction write 1..writesMax general
	// keys; replicated sets it, and it is the only workload with a WAL,
	// a Sync loop and a replica.
	writesMax  int
	replicated bool
	// setups is how many set-ups each set-up process performs;
	// setup_s is the median of all of them.
	setups int
}

// computeIters is about 150 µs of spin on the 2-vCPU Xeon VM it was
// calibrated on: at
// 1000 transactions/s the contention workload spends about 15% of the
// scheduler on transaction bodies. It is a fixed count, not a time, so
// both sides of a comparison do the same work.
const computeIters = 50_000

var specs = []spec{
	{
		// The hot path alone: decode, ingest, queue, install and
		// trigger at a high rate with nothing else competing. A light
		// read-only transaction probe (500/s, no compute) measures how
		// long update work holds transactions back under UpdatesFirst.
		name: "feed", updateRate: 50_000, txnRate: 500,
		policy: strip.UpdatesFirst, setups: 101,
	},
	{
		// The paper's regime, scaled: updates wait behind transactions
		// that use about 15% of the scheduler, under OnDemand with MA
		// staleness and a coalescing queue.
		name: "contention", updateRate: 20_000, txnRate: 1000,
		policy: strip.OnDemand, maxAge: 100 * time.Millisecond, coalesce: true, onStale: strip.Warn,
		compute: computeIters, setups: 101,
	},
	{
		// Durability and replication: the primary replays a WAL of
		// about 200k records at set-up and one replica bootstraps from
		// it; transactions write general keys that are logged, synced
		// every 10 ms and streamed to the replica.
		name: "replicated", updateRate: 20_000, txnRate: 500,
		policy:    strip.UpdatesFirst,
		writesMax: 4, replicated: true,
		setups: 11,
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

const (
	numViews = 1000
	// numKeys general keys, written walRecords times in all by the WAL
	// that replicated pre-writes, walBatch records per transaction.
	numKeys    = 10_000
	walRecords = 200_000
	walBatch   = 100
)

// update is one scheduled feed line: due is nanoseconds after the feed
// starts, and the line's value is the update's index in the schedule,
// which is how consumers map an installed entry back to it.
type update struct {
	due  int64
	view int32
}

// txn is one scheduled transaction.
type txn struct {
	due, deadline int64 // nanoseconds after the feed starts
	estimate      time.Duration
	value         float64
	reads         []int32 // view indexes
	writes        []int32 // general-key indexes
}

// inputs is everything a run sends, made from the seed alone.
type inputs struct {
	updates []update
	txns    []txn
	// walVals are the values the pre-written WAL records in order;
	// record i sets key i mod numKeys.
	walVals []float64
}

// makeInputs draws the schedule for span nanoseconds of feed from the
// repository's own generators. The update stream is Poisson and uniform
// over the views, and its generation times are the due times (no
// network age), so due-to-visible latency is the engine's and the
// feed's alone. The transaction class, value, read set and slack come
// from TxnGenerator.
func makeInputs(s spec, seed uint64, span time.Duration) *inputs {
	root := stats.NewRNG(seed, 0x5eed)
	updRNG, txnRNG, keyRNG, walRNG := root.Split(), root.Split(), root.Split(), root.Split()

	p := model.DefaultParams()
	p.NLow, p.NHigh = numViews/2, numViews/2
	p.PUpdateLow = 0.5
	p.UpdateRate = s.updateRate
	p.MeanUpdateAge = 0
	p.TxnRate = s.txnRate
	// The paper's slack, 0.1–1 s, is kept: no transaction misses its
	// deadline on a quiet host, so a missed deadline is a failed
	// operation and shows as a regression in txn_psuccess.
	// Estimates: the nominal compute time plus 2 µs per view read.
	p.CompMean, p.CompStd = float64(s.compute)/computeIters*150e-6, 0
	p.IPS, p.XLookup = 50e6, 100

	in := &inputs{}
	limit := span.Seconds()
	ug := workload.NewUpdateGenerator(&p, updRNG)
	for u := ug.Next(); u != nil && u.ArrivalTime < limit; u = ug.Next() {
		in.updates = append(in.updates, update{due: nanos(u.ArrivalTime), view: int32(u.Object)})
	}
	tg := workload.NewTxnGenerator(&p, txnRNG)
	for t := tg.Next(); t != nil && t.ArrivalTime < limit; t = tg.Next() {
		x := txn{
			due:      nanos(t.ArrivalTime),
			deadline: nanos(t.Deadline),
			estimate: time.Duration(nanos(workload.EstimateSeconds(&p, t))),
			value:    t.Value,
		}
		for _, id := range t.ReadSet {
			x.reads = append(x.reads, int32(id))
		}
		if s.writesMax > 0 {
			for n := 1 + keyRNG.IntN(s.writesMax); n > 0; n-- {
				x.writes = append(x.writes, int32(keyRNG.IntN(numKeys)))
			}
		}
		in.txns = append(in.txns, x)
	}
	if s.replicated {
		in.walVals = make([]float64, walRecords)
		for i := range in.walVals {
			// Integral values keep the WAL's text encoding short.
			in.walVals[i] = float64(walRNG.IntN(1 << 30))
		}
	}
	return in
}

func nanos(sec float64) int64 { return int64(sec * 1e9) }

// spin is the transaction body's fixed compute: an xorshift chain the
// compiler cannot fold.
func spin(iters int, x uint64) uint64 {
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

var viewNames, keyNames = func() ([]string, []string) {
	v := make([]string, numViews)
	for i := range v {
		v[i] = fmt.Sprintf("v%03d", i)
	}
	k := make([]string, numKeys)
	for i := range k {
		k[i] = fmt.Sprintf("k%05d", i)
	}
	return v, k
}()

func importance(view int) strip.Importance {
	if view >= numViews/2 {
		return strip.High
	}
	return strip.Low
}
