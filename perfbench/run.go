package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/strip"
	"repro/strip/obs"
)

// The time axis of a run: nanoseconds on the monotonic clock since the
// process started. Due times, send times and visibility are all read on
// it; only the generation stamps on the wire are wall-clock.
var epoch = time.Now()

func mono() int64 { return int64(time.Since(epoch)) }

func wallNanos(m int64) int64 { return epoch.UnixNano() + m }

func sleepUntil(m int64) {
	if d := m - mono(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

const (
	warmup = time.Second
	// lead is the gap between the end of set-up and the first due time.
	lead = 20 * time.Millisecond
	// tick is the feed generator's period: each tick sends every line
	// due by then in one write.
	tick = time.Millisecond
	// workers bounds the transaction submissions in flight.
	workers = 128
	// syncEvery is the replicated workload's DB.Sync period.
	syncEvery = 10 * time.Millisecond
	drainWait = 30 * time.Second
)

// flush is one feed write.
type flush struct {
	start, end int64
	late       int64 // start minus the tick it was scheduled for
	lines      int
}

// setupRec is one set-up's timings.
type setupRec struct {
	Total     time.Duration `json:"total_ns"`
	Replay    time.Duration `json:"replay_ns"`
	Bootstrap time.Duration `json:"bootstrap_ns"`
}

// txnRec is what the benchmark saw of one transaction. The body fields
// are written on the engine's scheduler goroutine and read after Exec
// returns.
type txnRec struct {
	submit, done       int64
	res                strip.State
	stale              bool
	reads, staleReads  int
	bodyStart, bodyEnd int64 // traced runs only
	readSpans          [][2]int64
	sink               uint64    // the spin's result, kept so it is not optimised away
	finished           time.Time // Result.Finished: the commit order
}

// pass is one measured run of a workload: set-up, feed, drain, checks.
type pass struct {
	s      spec
	in     *inputs
	traced bool
	dir    string
	secs   time.Duration

	setups []setupRec // timed in set-up processes, see setUpInProcesses
	env    *env

	start  int64 // due times are relative to this
	ws, we int64 // measured window, absolute mono

	sent         []int64 // per update: flush start
	visP, visR   []int64 // per update: visible on primary / replica
	flushes      []flush
	txns         []txnRec
	syncs        [][2]int64
	dispatchLate int64 // worst transaction submission lateness in the window

	// a and b are the readings at the window's start and end.
	a, b          reading
	lagUpdatesEnd int
	seqGapEnd     uint64

	final  counters    // the primary's update accounting after the drain
	traces []obs.Trace // the engine's own trace ring at the window's end

	checks []error
}

func (p *pass) fail(format string, args ...any) {
	p.checks = append(p.checks, fmt.Errorf(format, args...))
}

// run times the set-ups, then sets up once more in this process, feeds
// that set-up for warmup + secs and drains it.
func (p *pass) run() error {
	n := len(p.in.updates)
	p.sent = make([]int64, n)
	p.visP = make([]int64, n)
	p.txns = make([]txnRec, len(p.in.txns))
	onP := consumer(p.visP)
	var onR func(strip.Entry)
	if p.s.replicated {
		p.visR = make([]int64, n)
		onR = consumer(p.visR)
	}
	var err error
	if p.setups, err = setUpInProcesses(p.s, p.dir); err != nil {
		return err
	}
	if p.env, err = setUp(p.s, p.dir, p.traced, onP, onR); err != nil {
		if p.env != nil {
			p.env.close()
		}
		return fmt.Errorf("set-up: %w", err)
	}
	defer p.env.close()

	p.start = mono() + int64(lead)
	p.ws = p.start + int64(warmup)
	p.we = p.ws + int64(p.secs)

	var wg sync.WaitGroup
	feedErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		feedErr <- p.feed()
	}()
	txnDone := make(chan struct{})
	go func() {
		p.dispatch()
		close(txnDone)
	}()
	syncErr := make(chan error, 1)
	if p.s.replicated {
		wg.Add(1)
		go func() {
			defer wg.Done()
			syncErr <- p.syncLoop()
		}()
	}

	sleepUntil(p.ws)
	p.a = p.read()
	sleepUntil(p.we)
	p.b = p.read()
	p.traces = p.env.db.Traces()
	if p.env.replica != nil {
		_, p.lagUpdatesEnd = p.env.rdb.ReplicaLag()
		p.seqGapEnd = p.env.db.Sequence() - p.env.replica.LastSeq()
	}

	<-txnDone
	wg.Wait()
	if err := <-feedErr; err != nil {
		return fmt.Errorf("feed: %w", err)
	}
	if p.s.replicated {
		if err := <-syncErr; err != nil {
			return fmt.Errorf("sync: %w", err)
		}
	}
	return p.drainAndCheck()
}

// consumer records, per update index, when the update became visible.
// The value of every feed line is its index in the schedule.
func consumer(vis []int64) func(strip.Entry) {
	return func(e strip.Entry) {
		if i := int(e.Value); i >= 0 && i < len(vis) && float64(i) == e.Value {
			vis[i] = mono()
		}
	}
}

// reading is everything read from outside the engine at one edge of
// the window; rreg and walBytes only on replicated.
type reading struct {
	proc     procSnap
	reg      regSnap
	rreg     regSnap
	stats    strip.Stats
	walBytes int64
}

func (p *pass) read() reading {
	r := reading{proc: readProc(), reg: readRegistry(p.env.db.Metrics()), stats: p.env.db.Stats()}
	if p.env.rdb != nil {
		r.rreg = readRegistry(p.env.rdb.Metrics())
		r.walBytes = walSize(p.dir)
	}
	return r
}

// feed is the open-loop generator: every tick it encodes the lines due
// by now into one buffer and writes it to the feed connection. It never
// waits for the engine, so a stall shows as latency, not as less load.
func (p *pass) feed() error {
	ups := p.in.updates
	buf := make([]byte, 0, 64<<10)
	p.flushes = make([]flush, 0, int((warmup+p.secs)/tick)+16)
	i := 0
	for k := int64(0); i < len(ups); k++ {
		at := p.start + k*int64(tick)
		sleepUntil(at)
		now := mono()
		j := i
		buf = buf[:0]
		for j < len(ups) && p.start+ups[j].due <= now {
			buf = appendLine(buf, viewNames[ups[j].view], wallNanos(p.start+ups[j].due), j)
			j++
		}
		if j == i {
			continue
		}
		fs := mono()
		for x := i; x < j; x++ {
			p.sent[x] = fs
		}
		if _, err := p.env.feed.Write(buf); err != nil {
			return err
		}
		p.flushes = append(p.flushes, flush{start: fs, end: mono(), late: fs - at, lines: j - i})
		i = j
	}
	return nil
}

// appendLine encodes one update in the line protocol Serve speaks,
// "<object> <generated-unix-nanos> <value>", without allocating.
func appendLine(b []byte, object string, gen int64, value int) []byte {
	b = append(b, object...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, gen, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(value), 10)
	return append(b, '\n')
}

// dispatch submits each transaction at its due time to a bounded pool
// of workers, each of which blocks in Exec. When every worker is busy
// the dispatcher waits, and the wait shows as lateness.
func (p *pass) dispatch() {
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				p.exec(i)
			}
		}()
	}
	for i := range p.in.txns {
		due := p.start + p.in.txns[i].due
		sleepUntil(due)
		work <- i
		if late := mono() - due; late > p.dispatchLate && due >= p.ws && due < p.we {
			p.dispatchLate = late
		}
	}
	close(work)
	wg.Wait()
}

func (p *pass) exec(i int) {
	t := &p.in.txns[i]
	r := &p.txns[i]
	traced := p.traced
	body := func(tx *strip.Tx) error {
		if traced {
			r.bodyStart = mono()
			defer func() { r.bodyEnd = mono() }()
		}
		for _, v := range t.reads {
			var rs int64
			if traced {
				rs = mono()
			}
			e, err := tx.Read(viewNames[v])
			if traced {
				r.readSpans = append(r.readSpans, [2]int64{rs, mono()})
			}
			if err != nil {
				return err
			}
			r.reads++
			if e.Stale {
				r.staleReads++
			}
		}
		r.sink = spin(p.s.compute, uint64(i)|1)
		for slot, k := range t.writes {
			tx.Set(keyNames[k], writeValue(i, slot))
		}
		return nil
	}
	r.submit = mono()
	res := p.env.db.Exec(strip.TxnSpec{
		Value:    t.value,
		Deadline: time.Unix(0, wallNanos(p.start+t.deadline)),
		Estimate: t.estimate,
		Func:     body,
	})
	r.done = mono()
	r.res = res.State
	r.stale = res.ReadStale
	r.finished = res.Finished
}

// writeValue is the value transaction i writes in its slot-th write:
// unique per write, so the final state names the commit that made it.
func writeValue(i, slot int) float64 { return float64(i*8 + slot + 1) }

// syncLoop calls DB.Sync every syncEvery until the schedule ends, half
// a tick after a feed write: a ticker's phase would differ from run to
// run, and where each fsync lands against the feed's bursts changes
// what both cost.
func (p *pass) syncLoop() error {
	end := p.we + int64(lead)
	for at := p.start + int64(tick)/2; at < end; at += int64(syncEvery) {
		sleepUntil(at)
		s := mono()
		if err := p.env.db.Sync(); err != nil {
			return err
		}
		p.syncs = append(p.syncs, [2]int64{s, mono()})
	}
	return nil
}

// drainAndCheck waits for the engine to finish everything it was sent,
// then runs the output checks.
func (p *pass) drainAndCheck() error {
	db := p.env.db
	sent := uint64(len(p.in.updates))
	deadline := time.Now().Add(drainWait)
	var c counters
	for {
		st := db.Stats()
		c = counters{
			sent: sent, received: st.UpdatesReceived, dropped: st.UpdatesDropped,
			installed: st.UpdatesInstalled, skipped: st.UpdatesSkipped,
			expired: st.UpdatesExpired, evicted: st.UpdatesEvicted, qlen: uint64(st.QueueLen),
		}
		if reconcile(c) == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	p.final = c
	if err := reconcile(c); err != nil {
		p.fail("primary counters: %v", err)
	}
	p.checkViews(db.ReplicaSnapshot(), c.expired+c.dropped+c.evicted, "primary")

	if !p.s.replicated {
		return nil
	}
	if err := db.Sync(); err != nil {
		return fmt.Errorf("final sync: %w", err)
	}
	rdb, replica := p.env.rdb, p.env.replica
	var rc counters
	for {
		st := rdb.Stats()
		// A replica's input is the stream its primary published, not
		// lines sent, and replication never drops: only the queue
		// identity applies.
		rc = counters{
			sent: st.UpdatesReceived, received: st.UpdatesReceived,
			installed: st.UpdatesInstalled, skipped: st.UpdatesSkipped,
			expired: st.UpdatesExpired, evicted: st.UpdatesEvicted, qlen: uint64(st.QueueLen),
		}
		_, lag := rdb.ReplicaLag()
		if (replica.LastSeq() == db.Sequence() && lag == 0 && reconcile(rc) == nil) || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got, want := replica.LastSeq(), db.Sequence(); got != want {
		p.fail("replica LastSeq %d != primary Sequence %d", got, want)
	}
	if err := reconcile(rc); err != nil {
		p.fail("replica counters: %v", err)
	}
	ps, rs := db.ReplicaSnapshot(), rdb.ReplicaSnapshot()
	if err := sameState(ps, rs); err != nil {
		p.fail("replica differs from primary: %v", err)
	}
	want := p.expectedGeneral()
	if err := sameGeneral(ps.General, want); err != nil {
		p.fail("primary general data: %v", err)
	}

	// Durability: everything was synced, so a fresh open of the WAL
	// must hold every committed write.
	if err := p.env.close(); err != nil {
		return fmt.Errorf("closing: %w", err)
	}
	re, err := strip.Open(strip.Config{WALPath: walPath(p.dir)})
	if err != nil {
		return fmt.Errorf("re-opening the WAL: %w", err)
	}
	defer re.Close()
	if err := sameGeneral(re.ReplicaSnapshot().General, want); err != nil {
		p.fail("re-opened WAL: %v", err)
	}
	return nil
}

// checkViews verifies that every view holds the newest update sent for
// it, or, for at most `lost` views, an older update that was really
// sent (its newest may have expired, been dropped or been evicted).
func (p *pass) checkViews(s strip.Snapshot, lost uint64, who string) {
	newest := make([]int, numViews)
	for i := range newest {
		newest[i] = -1
	}
	for i, u := range p.in.updates {
		newest[u.view] = i
	}
	byName := make(map[string]strip.SnapshotView, len(s.Views))
	for _, v := range s.Views {
		byName[v.Name] = v
	}
	var older uint64
	for view, want := range newest {
		v, ok := byName[viewNames[view]]
		if !ok {
			p.fail("%s: view %s missing", who, viewNames[view])
			continue
		}
		if want < 0 {
			if !v.Generated.IsZero() {
				p.fail("%s: view %s was never updated but holds a value", who, viewNames[view])
			}
			continue
		}
		got := int(v.Value)
		if got == want && v.Generated.UnixNano() == wallNanos(p.start+p.in.updates[want].due) {
			continue
		}
		if got >= 0 && got < want && float64(got) == v.Value && int(p.in.updates[got].view) == view &&
			v.Generated.UnixNano() == wallNanos(p.start+p.in.updates[got].due) {
			older++
			continue
		}
		p.fail("%s: view %s holds value %v generated %d, sent newest #%d", who, viewNames[view], v.Value, v.Generated.UnixNano(), want)
	}
	if older > lost {
		p.fail("%s: %d views hold an older update but only %d updates were lost", who, older, lost)
	}
}

// expectedGeneral replays the pre-written WAL and then every committed
// transaction in commit order, which on the single scheduler is the
// order of their finish times.
func (p *pass) expectedGeneral() map[string]float64 {
	m := make(map[string]float64, numKeys)
	for i, v := range p.in.walVals {
		m[keyNames[i%numKeys]] = v
	}
	var order []int
	for i := range p.txns {
		if p.txns[i].res == strip.Committed && len(p.in.txns[i].writes) > 0 {
			order = append(order, i)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return p.txns[a].finished.Compare(p.txns[b].finished)
	})
	for _, i := range order {
		for slot, k := range p.in.txns[i].writes {
			m[keyNames[k]] = writeValue(i, slot)
		}
	}
	return m
}

func sameGeneral(got []strip.KeyValue, want map[string]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d keys, want %d", len(got), len(want))
	}
	for _, kv := range got {
		if w, ok := want[kv.Key]; !ok || w != kv.Value {
			return fmt.Errorf("key %s = %v, want %v", kv.Key, kv.Value, w)
		}
	}
	return nil
}

// sameState compares two snapshots' views and general data.
func sameState(a, b strip.Snapshot) error {
	if len(a.Views) != len(b.Views) {
		return fmt.Errorf("%d views, replica %d", len(a.Views), len(b.Views))
	}
	for i := range a.Views {
		x, y := a.Views[i], b.Views[i]
		if x.Name != y.Name || x.Value != y.Value || !x.Generated.Equal(y.Generated) || x.Importance != y.Importance {
			return fmt.Errorf("view %s: primary %v@%d, replica %s %v@%d", x.Name, x.Value, x.Generated.UnixNano(), y.Name, y.Value, y.Generated.UnixNano())
		}
	}
	if !slices.Equal(a.General, b.General) {
		return errors.New("general data differs")
	}
	return nil
}

// walSize is the bytes the WAL's files hold.
func walSize(dir string) int64 {
	var n int64
	matches, _ := filepath.Glob(walPath(dir) + "*") // the pattern is well-formed
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil {
			n += fi.Size()
		}
	}
	return n
}
