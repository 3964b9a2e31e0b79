package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/strip"
	"repro/strip/repl"
)

// env is one set-up of the engine under test: the primary with its feed
// listener and the benchmark's feed connection, and on replicated the
// WAL, the replication publisher and one bootstrapped replica.
type env struct {
	db      *strip.DB
	feedLn  net.Listener
	feed    net.Conn
	primary *repl.Primary
	replLn  net.Listener
	rdb     *strip.DB
	replica *repl.Replica

	replay, bootstrap time.Duration
	bootStart         int64
}

// walPath is where the replicated workload's primary keeps its WAL.
func walPath(dir string) string { return filepath.Join(dir, "primary.wal") }

func (s spec) config(dir string, traced bool) strip.Config {
	cfg := strip.Config{
		Policy:   s.policy,
		MaxAge:   s.maxAge,
		OnStale:  s.onStale,
		Coalesce: s.coalesce,
	}
	if s.replicated {
		cfg.WALPath = walPath(dir)
	}
	if traced {
		cfg.TraceDepth = 4096
	}
	return cfg
}

// prewriteWAL commits the replicated workload's WAL records through the
// engine's own transaction path, walBatch keys per commit, and closes
// the database so the log is synced.
func prewriteWAL(dir string, vals []float64) error {
	db, err := strip.Open(strip.Config{WALPath: walPath(dir)})
	if err != nil {
		return err
	}
	for b := 0; b < len(vals); b += walBatch {
		res := db.Exec(strip.TxnSpec{Func: func(tx *strip.Tx) error {
			for i := b; i < b+walBatch && i < len(vals); i++ {
				tx.Set(keyNames[i%numKeys], vals[i])
			}
			return nil
		}})
		if !res.Committed() {
			db.Close()
			return fmt.Errorf("pre-writing the WAL: %v", res.Err)
		}
	}
	return db.Close()
}

// setUp opens the engine and makes it ready to serve: views defined,
// consumers registered, the feed connection established and, on
// replicated, the replica bootstrapped to the primary's sequence. The
// consumers receive every install on the primary and the replica.
func setUp(s spec, dir string, traced bool, onPrimary, onReplica func(strip.Entry)) (*env, error) {
	e := &env{}
	start := time.Now()
	db, err := strip.Open(s.config(dir, traced))
	if err != nil {
		return nil, err
	}
	e.replay = time.Since(start)
	e.db = db
	for i, name := range viewNames {
		if err := db.DefineView(name, importance(i)); err != nil {
			return e, err
		}
	}
	if err := db.OnInstall("", onPrimary); err != nil {
		return e, err
	}
	if e.feedLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return e, err
	}
	go db.Serve(e.feedLn)
	if e.feed, err = net.Dial("tcp", e.feedLn.Addr().String()); err != nil {
		return e, err
	}
	if !s.replicated {
		return e, nil
	}

	e.primary = repl.NewPrimary(db, repl.PrimaryConfig{Metrics: db.Metrics()})
	if e.replLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return e, err
	}
	go e.primary.Serve(e.replLn)
	rcfg := s.config(dir, traced)
	rcfg.WALPath = ""
	if e.rdb, err = strip.Open(rcfg); err != nil {
		return e, err
	}
	if err := e.rdb.OnInstall("", onReplica); err != nil {
		return e, err
	}
	bstart := time.Now()
	e.bootStart = mono()
	e.replica, err = repl.StartReplica(e.rdb, repl.ReplicaConfig{
		Addr: e.replLn.Addr().String(), Metrics: e.rdb.Metrics(),
	})
	if err != nil {
		return e, err
	}
	target := db.Sequence()
	for e.replica.LastSeq() < target || len(e.rdb.Views()) < numViews {
		if time.Since(bstart) > 30*time.Second {
			return e, errors.New("replica did not bootstrap within 30s")
		}
		time.Sleep(50 * time.Microsecond)
	}
	e.bootstrap = time.Since(bstart)
	return e, nil
}

// setUpProcs is how many fresh processes of this program each pass
// starts to time set-ups in. A process draws a set-up time that holds
// for its whole life, and that level differs from one process to the
// next by a tenth or more, so set-up time is pooled over many processes.
const setUpProcs = 5

// setUpInProcesses runs setUpProcs processes of this program one after
// another, each timing s.setups set-ups over dir, and returns all their
// timings.
func setUpInProcesses(s spec, dir string) ([]setupRec, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var all []setupRec
	for k := 0; k < setUpProcs; k++ {
		cmd := exec.Command(exe, "-workload", s.name, "-setups", strconv.Itoa(s.setups), "-dir", dir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		var recs []setupRec
		if err := json.Unmarshal(out, &recs); err != nil {
			return nil, fmt.Errorf("set-up process output: %w", err)
		}
		all = append(all, recs...)
	}
	return all, nil
}

// timeSetUps performs n set-ups over dir, each torn down before the
// next and each started from a collected heap, so a GC cycle the last
// one left behind is not timed in it.
func timeSetUps(s spec, dir string, n int) ([]setupRec, error) {
	nop := func(strip.Entry) {}
	var recs []setupRec
	for i := 0; i < n; i++ {
		runtime.GC()
		t := time.Now()
		e, err := setUp(s, dir, false, nop, nop)
		if err != nil {
			if e != nil {
				e.close()
			}
			return nil, err
		}
		recs = append(recs, setupRec{Total: time.Since(t), Replay: e.replay, Bootstrap: e.bootstrap})
		if err := e.close(); err != nil {
			return nil, fmt.Errorf("tearing down a set-up: %w", err)
		}
	}
	return recs, nil
}

// close tears the set-up down, replica first, and reports the first
// error a close returned. Closing twice is harmless.
func (e *env) close() error {
	var errs []error
	if e.feed != nil {
		errs = append(errs, e.feed.Close())
		e.feed = nil
	}
	if e.replica != nil {
		errs = append(errs, e.replica.Close())
		e.replica = nil
	}
	if e.rdb != nil {
		errs = append(errs, e.rdb.Close())
	}
	if e.primary != nil {
		errs = append(errs, e.primary.Close())
		e.primary = nil
	}
	errs = append(errs, e.db.Close())
	return errors.Join(errs...)
}
