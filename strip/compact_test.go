package strip

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/strip/fault"
)

// waitCompaction blocks until the automatic compaction requested so
// far, if any, has finished. Callers must not commit concurrently, or
// a fresh request could keep it waiting.
func (db *DB) waitCompaction() {
	for {
		db.mu.RLock()
		busy := db.compacting
		db.mu.RUnlock()
		if !busy {
			return
		}
		runtime.Gosched()
	}
}

// snapshotInstalls counts the snapshots an op log renamed into place.
func snapshotInstalls(ops []fault.Op) int {
	n := 0
	for _, op := range ops {
		if op.Kind == fault.OpRename && op.To == snapPath("wal") {
			n++
		}
	}
	return n
}

// commitBatch commits one transaction writing every pair of writes.
func commitBatch(t *testing.T, db *DB, writes map[string]float64) {
	t.Helper()
	res := db.Exec(TxnSpec{
		Deadline: time.Now().Add(5 * time.Second),
		Func: func(tx *Tx) error {
			for k, v := range writes {
				tx.Set(k, v)
			}
			return nil
		},
	})
	if !res.Committed() {
		t.Fatalf("commit failed: %+v", res)
	}
}

// TestCheckpointAutoBoundsReplay: a long write history over few keys
// compacts itself, so a reopen replays at most compactRatio records
// per live key plus compactFloor from the log, not the history; and
// the snapshots written along the way stay under 1/compactRatio of
// the records logged.
func TestCheckpointAutoBoundsReplay(t *testing.T) {
	const keys, width, n = 50, 10, 20_000
	fs := fault.NewMemFS()
	db, err := Open(Config{Policy: TransactionsFirst, WALPath: "wal", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]float64, keys)
	for i := 0; i < n; i += width {
		writes := make(map[string]float64, width)
		for j := i; j < i+width; j++ {
			writes[fmt.Sprintf("g%02d", j%keys)] = float64(j)
		}
		commitBatch(t, db, writes)
		db.waitCompaction()
		for k, v := range writes {
			want[k] = v
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	ops := fs.Ops()
	var snapBytes []byte
	for _, op := range ops {
		if op.Kind == fault.OpWrite && op.Name == snapPath("wal")+".tmp" {
			snapBytes = append(snapBytes, op.Data...)
		}
	}
	snapRecords, installs := bytes.Count(snapBytes, []byte("set ")), snapshotInstalls(ops)
	if installs == 0 {
		t.Fatalf("%d records over %d keys ran no compaction", n, keys)
	}
	if snapRecords*compactRatio > n {
		t.Fatalf("%d compactions wrote %d snapshot records for %d logged, over 1/%d", installs, snapRecords, n, compactRatio)
	}

	// The sort moved off the lock: the snapshot must still list its
	// records in key order.
	snap, err := fs.ReadFile(snapPath("wal"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(snap), "\n"), "\n")[1:]
	if len(lines) != keys || !slices.IsSorted(lines) {
		t.Fatalf("snapshot records not one per key in key order:\n%s", snap)
	}

	db2, err := Open(Config{Policy: TransactionsFirst, WALPath: "wal", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	active, err := fs.ReadFile("wal")
	if err != nil {
		t.Fatal(err)
	}
	tail := walTail(db2)
	if want := bytes.Count(active, []byte("set ")); tail != want {
		t.Fatalf("reopen counted %d log records, the active segment holds %d", tail, want)
	}
	if limit := compactRatio*keys + compactFloor; tail > limit {
		t.Fatalf("reopen replayed %d log records for %d keys, want at most %d", tail, keys, limit)
	}
	got := db2.ReplicaSnapshot().General
	if len(got) != keys {
		t.Fatalf("recovered %d keys, want %d", len(got), keys)
	}
	for _, kv := range got {
		if want[kv.Key] != kv.Value {
			t.Fatalf("recovered %s=%v, want %v", kv.Key, kv.Value, want[kv.Key])
		}
	}
	t.Logf("%d compactions, %d snapshot records, reopen replayed %d snapshot + %d log records", installs, snapRecords, keys, tail)
}

// walTail reads the database's compaction count.
func walTail(db *DB) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.walTail
}

// TestCheckpointAutoCompactsRecoveredTail: a long log written without
// compaction — by an earlier version, say — is counted at Open, so the
// first commit compacts it and the next Open replays only what
// followed.
func TestCheckpointAutoCompactsRecoveredTail(t *testing.T) {
	const n, k = 20_000, 100
	fs := fault.NewMemFS()
	if err := fs.WriteFile("wal", replayLog(n, k)); err != nil {
		t.Fatal(err)
	}
	db, err := Open(Config{Policy: TransactionsFirst, WALPath: "wal", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if tail := walTail(db); tail != n {
		t.Fatalf("Open counted %d log records, want %d", tail, n)
	}
	commitBatch(t, db, map[string]float64{"after": 1})
	db.waitCompaction()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Config{Policy: TransactionsFirst, WALPath: "wal", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if tail := walTail(db2); tail != 0 {
		t.Fatalf("reopen after compaction replayed %d log records, want 0", tail)
	}
	if v, ok := getKey(t, db2, "after"); !ok || v != 1 {
		t.Fatalf("commit that triggered the compaction lost: %v %v", v, ok)
	}
	if got := len(db2.ReplicaSnapshot().General); got != k+1 {
		t.Fatalf("recovered %d keys, want %d", got, k+1)
	}
}

// TestCheckpointAutoCloseWaits: Close waits for an automatic
// compaction caught mid-snapshot, so the database's last file
// operation is Close's own fsync of the active segment and nothing
// touches the filesystem once Close has returned.
func TestCheckpointAutoCloseWaits(t *testing.T) {
	fs := fault.NewMemFS()
	db, err := Open(Config{Policy: TransactionsFirst, WALPath: "wal", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	var closed atomic.Bool
	var once sync.Once
	entered, release := make(chan struct{}), make(chan struct{})
	fs.SetInjector(func(op fault.Op) (int, error) {
		if closed.Load() {
			t.Errorf("file op after Close returned: %s %s", op.Kind, op.Name)
		}
		if op.Kind == fault.OpWrite && op.Name == snapPath("wal")+".tmp" {
			once.Do(func() {
				close(entered)
				<-release
			})
		}
		return 0, nil
	})

	const keys = 100
	writes := make(map[string]float64, keys)
	// The trigger is crossed after (4·keys + compactFloor)/keys batches.
	for i := 0; ; i++ {
		if i == 2*(compactRatio+compactFloor/keys) {
			t.Fatalf("%d batches of %d keys requested no compaction", i, keys)
		}
		for k := 0; k < keys; k++ {
			writes[fmt.Sprintf("g%03d", k)] = float64(i)
		}
		commitBatch(t, db, writes)
		db.mu.RLock()
		requested := db.compacting
		db.mu.RUnlock()
		if requested {
			break
		}
	}
	<-entered

	closeErr := make(chan error, 1)
	go func() { closeErr <- db.Close() }()
	select {
	case err := <-closeErr:
		t.Fatalf("Close returned (%v) while a compaction was writing its snapshot", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-closeErr; err != nil {
		t.Fatal(err)
	}
	closed.Store(true)
	ops := fs.Ops()
	fs.SetInjector(nil)
	last := ops[len(ops)-1]
	if last.Kind != fault.OpSync || last.Name != "wal" {
		t.Fatalf("last file op is %s %s, want Close's sync of wal", last.Kind, last.Name)
	}
	if snapshotInstalls(ops) == 0 {
		t.Fatal("the in-flight compaction never installed its snapshot")
	}
	state, err := recoveredState(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != keys {
		t.Fatalf("recovered %d keys, want %d", len(state), keys)
	}
}

// TestCheckpointAutoConcurrentCommits: writers committing from several
// goroutines while compactions and ReplicaSnapshot run lose no commit,
// and every snapshot a reader takes is sorted.
func TestCheckpointAutoConcurrentCommits(t *testing.T) {
	const writers, keys, rounds = 4, 25, 60
	fs := fault.NewMemFS()
	db, err := Open(Config{Policy: TransactionsFirst, WALPath: "wal", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res := db.Exec(TxnSpec{
					Deadline: time.Now().Add(5 * time.Second),
					Func: func(tx *Tx) error {
						for k := 0; k < keys; k++ {
							tx.Set(fmt.Sprintf("w%d-%02d", w, k), float64(r))
						}
						return nil
					},
				})
				if !res.Committed() {
					t.Errorf("writer %d round %d: %+v", w, r, res)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var side sync.WaitGroup
	side.Add(1)
	go func() {
		defer side.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			g := db.ReplicaSnapshot().General
			for j := 1; j < len(g); j++ {
				if g[j-1].Key >= g[j].Key {
					t.Errorf("snapshot unsorted at %d: %q >= %q", j, g[j-1].Key, g[j].Key)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	side.Wait()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	if snapshotInstalls(fs.Ops()) == 0 {
		t.Fatalf("%d records over %d keys ran no compaction", writers*keys*rounds, writers*keys)
	}
	state, err := recoveredState(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != writers*keys {
		t.Fatalf("recovered %d keys, want %d", len(state), writers*keys)
	}
	for k, v := range state {
		if v != rounds-1 {
			t.Fatalf("recovered %s=%v, want %d", k, v, rounds-1)
		}
	}
}
