package strip

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/strip/fault"
)

// replayLog builds an active WAL segment of n set records over k
// distinct keys, committed in batches of 100 distinct keys, the shape
// a long-running primary leaves behind.
func replayLog(n, k int) []byte {
	const batch = 100
	buf := []byte("wal 1\n")
	for i := 0; i < n; i++ {
		buf = appendSetRecord(buf, fmt.Sprintf("g%05d", i%k), float64(i)*0.25)
		if (i+1)%batch == 0 || i == n-1 {
			buf = append(buf, "commit\n"...)
		}
	}
	return buf
}

// TestRecoverGeneralAllocsScaleWithKeys: recovery allocates per
// distinct key, not per record. Replaying 20k records over 100 keys
// must cost a few allocations per key plus a constant, far below one
// per record; an allocation count repeats exactly, so this guards the
// one-pass replay without timing noise.
func TestRecoverGeneralAllocsScaleWithKeys(t *testing.T) {
	const n, k = 20_000, 100
	fs := fault.NewMemFS()
	if err := fs.WriteFile("wal", replayLog(n, k)); err != nil {
		t.Fatal(err)
	}
	var general map[string]float64
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		general, _, err = recoverGeneral(fs, "wal")
		if err != nil {
			t.Fatal(err)
		}
	})
	if len(general) != k {
		t.Fatalf("recovered %d keys, want %d", len(general), k)
	}
	if want := float64(n-1) * 0.25; general[fmt.Sprintf("g%05d", (n-1)%k)] != want {
		t.Fatalf("last write lost: %v", general)
	}
	if limit := float64(2*k + 64); allocs > limit {
		t.Fatalf("recovering %d records over %d keys made %.0f allocations, want at most %.0f (O(keys), not O(records))",
			n, k, allocs, limit)
	}
}

// TestReplayRejectsTornSnapshotHeader: snapshots are written to a temp
// file, synced and renamed, so a snapshot cut inside its header line
// is damage, not a crash artifact. Accepting "snap 1" cut from
// "snap 12\n..." would start replay at the wrong generation.
func TestReplayRejectsTornSnapshotHeader(t *testing.T) {
	fs := fault.NewMemFS()
	if err := fs.WriteFile("wal.snap", []byte("snap 1")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("wal", []byte("wal 12\nset \"a\" 1\ncommit\n")); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Config{Policy: TransactionsFirst, WALPath: "wal", FS: fs})
	var ce *WALCorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("torn snapshot header: Open returned %v, want *WALCorruptError", err)
	}
	if ce.File != "wal.snap" || ce.Line != 1 || ce.Offset != 0 {
		t.Fatalf("corruption located at %s:%d (byte %d), want wal.snap:1 (byte 0): %v",
			ce.File, ce.Line, ce.Offset, err)
	}
}

// TestSnapshotBytesMatchRecordEncoding pins the snapshot's on-disk
// bytes to the format it has always had: a "snap <gen>" header, then
// one `set <quoted-key> <value>` line per key in the order given.
func TestSnapshotBytesMatchRecordEncoding(t *testing.T) {
	pairs := []KeyValue{{"a", 1}, {"key with \"quotes\"\n", -2.5e-300}, {"z", 1e21}}
	fs := fault.NewMemFS()
	if err := writeSnapshot(fs, "wal", 42, pairs); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("wal.snap")
	if err != nil {
		t.Fatal(err)
	}
	want := "snap 42\n"
	for _, kv := range pairs {
		want += "set " + strconv.Quote(kv.Key) + " " + strconv.FormatFloat(kv.Value, 'g', -1, 64) + "\n"
	}
	if string(got) != want {
		t.Fatalf("snapshot bytes\n%q\nwant\n%q", got, want)
	}
}

// BenchmarkWALReplay opens a database over a 200k-record WAL across
// 10k keys, the log the replicated perfbench workload replays at
// set-up. Run with -benchmem: allocs/op tracks distinct keys.
func BenchmarkWALReplay(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.wal")
	if err := os.WriteFile(path, replayLog(200_000, 10_000), 0o644); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := Open(Config{WALPath: path})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
