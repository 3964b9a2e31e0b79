// Command perfbench is the repository's benchmark. It drives the live
// engine (strip, strip/repl) from outside over loopback TCP with a
// seeded open-loop update feed and transaction load, checks the
// engine's outputs, and prints the end-to-end metrics, or with -trace 1
// the per-layer table, ending with one JSON result line.
//
//	bash perfbench/run.sh --workload feed --seed 1 --seconds 20 --trace 0
//
// run.sh builds this package from the checkout it is run in, into
// .bench_build, and runs it from the checkout's root. Workloads, metrics
// and the layer-to-metric map are described in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/strip"
	"repro/strip/obs"
)

// buildDir holds everything a run writes: WALs (removed at exit) and
// the traced run's span dump.
const buildDir = ".bench_build"

func main() {
	workloadName := flag.String("workload", "", "workload: feed, contention or replicated")
	seed := flag.Uint64("seed", 1, "seed for every input the run sends")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: print the per-layer table from a traced run")
	setups := flag.Int("setups", 0, "time this many set-ups of the workload's engine in -dir, print their timings as JSON and exit (a run starts such processes itself)")
	dir := flag.String("dir", "", "the pass directory -setups opens the engine in, WAL and all")
	flag.Parse()
	if *setups > 0 {
		if err := printSetUps(*workloadName, *dir, *setups); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*workloadName, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool) error {
	s, err := findSpec(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: need at least 1", seconds)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	host := fingerprint()
	fmt.Printf("host: %s\n", host)
	fmt.Printf("workload %s: %.0f updates/s, %.0f txns/s, policy %v, seed %d, %ds window after %v warm-up\n",
		s.name, s.updateRate, s.txnRate, s.policy, seed, seconds, warmup)

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	window := time.Duration(seconds) * time.Second
	res := result{Correct: true, Metrics: make(map[string]value)}
	var metrics []metric
	if traced {
		in := makeInputs(s, seed, lead+warmup+window)
		untraced, err := measure(s, in, filepath.Join(dir, "untraced"), window, false)
		if err != nil {
			return err
		}
		t, err := measure(s, in, filepath.Join(dir, "traced"), window, true)
		if err != nil {
			return err
		}
		res.account(untraced)
		res.account(t)
		metrics = perLayer(untraced, t)
		if err := writeTrace(s.name, host, t); err != nil {
			return err
		}
	} else {
		share := window / untracedPasses
		in := makeInputs(s, seed, lead+warmup+share)
		var passes []*pass
		for k := 0; k < untracedPasses; k++ {
			p, err := measure(s, in, filepath.Join(dir, fmt.Sprint("pass", k)), share, false)
			if err != nil {
				return err
			}
			res.account(p)
			passes = append(passes, p)
		}
		metrics = endToEnd(passes)
	}

	for _, m := range metrics {
		note := ""
		if m.note != "" {
			note = "  (" + m.note + ")"
		}
		fmt.Printf("  %-32s %14.6g %-6s%s\n", m.name, m.value, m.unit, note)
		res.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

func printSetUps(name, dir string, n int) error {
	s, err := findSpec(name)
	if err != nil {
		return err
	}
	if dir == "" {
		return fmt.Errorf("-setups needs -dir")
	}
	recs, err := timeSetUps(s, dir, n)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(recs)
}

// untracedPasses is how many passes an end-to-end run makes, each with
// its own set-up and an equal share of the window; the end-to-end
// metrics are taken over their windows together. A pass settles into a
// latency and CPU level that can differ from the next pass's by a fifth,
// so one long pass would report whichever level it happened to draw.
const untracedPasses = 3

// account adds a pass's operations, failures and failed checks to the
// result and prints its stream rates.
func (res *result) account(p *pass) {
	res.Attempted += len(p.in.updates) + len(p.in.txns)
	res.Failed += int(p.final.dropped + p.final.evicted)
	for i := range p.txns {
		if p.txns[i].res != strip.Committed {
			res.Failed++
		}
	}
	for _, c := range p.checks {
		res.Correct = false
		fmt.Printf("CHECK FAILED: %v\n", c)
	}
	r := p.rates()
	secs := p.windowSeconds()
	fmt.Printf("pass traced=%v: updates offered %.0f/s achieved %.0f/s late max %.1f ms; txns offered %.0f/s achieved %.0f/s late max %.1f ms; host steal %.1f%%\n",
		p.traced, float64(r.offered)/secs, float64(r.achieved)/secs, ms(r.late),
		float64(r.txnOffered)/secs, float64(r.txnAchieved)/secs, ms(p.dispatchLate), stealPct(p.a.proc, p.b.proc))
}

// measure runs one pass in its own directory, pre-writing the WAL the
// replicated workload opens over.
func measure(s spec, in *inputs, dir string, window time.Duration, traced bool) (*pass, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if s.replicated {
		if err := prewriteWAL(dir, in.walVals); err != nil {
			return nil, err
		}
	}
	p := &pass{s: s, in: in, traced: traced, dir: dir, secs: window}
	if err := p.run(); err != nil {
		return nil, err
	}
	if err := checkRates(p); err != nil {
		p.checks = append(p.checks, err)
	}
	return p, nil
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// host identifies the machine a result was measured on; numbers from
// different hosts are not comparable.
type host struct {
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
}

func (h host) String() string {
	return fmt.Sprintf("nproc=%d cpu=%q go=%s GOMAXPROCS=%d kernel=%s", h.NProc, h.CPU, h.Go, h.GOMAXPROCS, h.Kernel)
}

func fingerprint() host {
	h := host{NProc: runtime.NumCPU(), CPU: "unknown", Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), Kernel: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		h.Kernel = b.String()
	}
	return h
}

// writeTrace dumps the traced pass's spans and the engine's own trace
// ring to .bench_build/trace-<workload>.json, replacing the last dump.
func writeTrace(name string, h host, p *pass) error {
	type jspan struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int    `json:"parent"`
		Req    int64  `json:"req"`
	}
	var spans []jspan
	for _, s := range p.spans() {
		spans = append(spans, jspan{s.name, s.start, s.end, s.parent, s.req})
	}
	b, err := json.Marshal(struct {
		Host         host        `json:"host"`
		Spans        []jspan     `json:"spans"`
		EngineTraces []obs.Trace `json:"engine_traces"`
	}{h, spans, p.traces})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(buildDir, "trace-"+name+".json"), b, 0o644)
}
