package strip

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/strip/fault"
)

func FuzzParseUpdateLine(f *testing.F) {
	f.Add("DEM/USD 1700000000000000000 1.6612")
	f.Add("x 0 3.5")
	f.Add("a b c")
	f.Add("")
	f.Add("obj 123 -1e308")
	f.Fuzz(func(t *testing.T, line string) {
		u, err := ParseUpdateLine(line)
		if err != nil {
			return
		}
		// A successfully parsed update must round-trip.
		out, err2 := ParseUpdateLine(FormatUpdateLine(u))
		if err2 != nil {
			t.Fatalf("round trip of %q failed: %v", line, err2)
		}
		if out.Object != u.Object {
			t.Fatalf("object changed: %q -> %q", u.Object, out.Object)
		}
		// NaN values do not compare equal; everything else must.
		if out.Value != u.Value && u.Value == u.Value {
			t.Fatalf("value changed: %v -> %v", u.Value, out.Value)
		}
	})
}

func FuzzParseSetLine(f *testing.F) {
	f.Add(`set "key" 1.5`)
	f.Add(`set "weird \"key\"" -2`)
	f.Add(`commit`)
	f.Add(`set x 1`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, line string) {
		key, value, err := parseSetLine(line)
		if err != nil {
			return
		}
		_ = key
		_ = value
	})
}

func FuzzWALRoundTrip(f *testing.F) {
	f.Add("plain", 1.5)
	f.Add("key with spaces", -2.25)
	f.Add("quotes\"and\\slashes", 0.0)
	f.Add("newline\nkey", 9e99)
	f.Fuzz(func(t *testing.T, key string, val float64) {
		if val != val {
			return // NaN never compares equal
		}
		dir := t.TempDir()
		cfg := Config{WALPath: dir + "/w.wal"}
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := db.Exec(TxnSpec{
			Deadline: time.Now().Add(time.Second),
			Func: func(tx *Tx) error {
				tx.Set(key, val)
				return nil
			},
		})
		if !res.Committed() {
			db.Close()
			t.Fatalf("commit failed: %+v", res)
		}
		db.Close()

		db2, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer db2.Close()
		var got float64
		var ok bool
		db2.Exec(TxnSpec{
			Deadline: time.Now().Add(time.Second),
			Func: func(tx *Tx) error {
				got, ok = tx.Get(key)
				return nil
			},
		})
		if !ok || got != val {
			t.Fatalf("recovered %q = %v (%v), want %v", key, got, ok, val)
		}
	})
}

// referenceReplay is a deliberately straightforward model of the
// active-segment replay contract, independent of the one-pass scanner
// in wal.go: it splits the whole log into lines first, batches apply
// only with a terminated commit line, the final record may be torn
// (unparsable or missing its newline), and any record after a torn one
// is mid-log corruption. It returns corrupt=true where recovery must
// fail, with the 1-based line and byte offset of the damaged record
// the error must name.
func referenceReplay(data []byte) (state map[string]float64, corrupt bool, line int, off int64) {
	lines, offs, term := splitLines(data)
	state = map[string]float64{}
	start := 0
	if len(lines) > 0 && strings.HasPrefix(lines[0], "wal ") {
		if len(lines) == 1 && !term {
			return state, false, 0, 0 // torn header: segment died at birth
		}
		if _, err := strconv.ParseUint(lines[0][len("wal "):], 10, 64); err != nil {
			return nil, true, 1, 0
		}
		start = 1
	}
	batch := map[string]float64{}
	torn := -1 // index of the torn record, if any
	for i := start; i < len(lines); i++ {
		if torn >= 0 {
			// A record after damage proves it mid-log.
			return nil, true, torn + 1, offs[torn]
		}
		last := i == len(lines)-1 && !term
		if lines[i] == "commit" && !last {
			for k, v := range batch {
				state[k] = v
			}
			batch = map[string]float64{}
			continue
		}
		key, value, err := parseSetLine(lines[i])
		if last || err != nil {
			torn = i // tolerated only as the final record
			continue
		}
		batch[key] = value
	}
	return state, false, 0, 0
}

// splitLines breaks data into newline-delimited lines with their byte
// offsets, reporting whether the final line had its newline. It is the
// reference model's own line splitter, kept apart from wal.go's
// scanner so the fuzz target checks the scanner's line numbers and
// offsets against an independent count.
func splitLines(data []byte) (lines []string, offs []int64, terminated bool) {
	terminated = true
	start := 0
	for i := 0; i < len(data); i++ {
		if data[i] == '\n' {
			lines = append(lines, string(data[start:i]))
			offs = append(offs, int64(start))
			start = i + 1
		}
	}
	if start < len(data) {
		lines = append(lines, string(data[start:]))
		offs = append(offs, int64(start))
		terminated = false
	}
	return lines, offs, terminated
}

// FuzzReplayWAL feeds arbitrary bytes to recovery as the active WAL
// segment and checks it against referenceReplay: recovery must never
// panic, must fail with a typed *WALCorruptError naming the model's
// first damaged record exactly when the model says the log is
// corrupt, and must otherwise produce exactly the model's state.
func FuzzReplayWAL(f *testing.F) {
	f.Add([]byte("wal 1\nset \"a\" 1\ncommit\n"))
	f.Add([]byte("wal 1\nset \"a\" 1\ncommit\nset \"b\" 2\nGARB"))
	f.Add([]byte("wal 1\nset \"a\" 1\ncommit\nGARBAGE\nset \"b\" 2\ncommit\n"))
	f.Add([]byte("set \"legacy\" 3\ncommit\n")) // headerless generation 0
	f.Add([]byte("wal 1\nset \"a\" 1\ncommit")) // unterminated commit token
	f.Add([]byte("wal x\n"))
	f.Add([]byte("wal 2"))
	f.Add([]byte(""))
	f.Add([]byte("\n\n"))
	// Headerless generation-0 logs: a torn tail, and mid-log damage.
	f.Add([]byte("set \"a\" 1\ncommit\nset \"b\" 2\ncommit\nset \"c\" 3\ncomm"))
	f.Add([]byte("set \"a\" 1\ncommit\nset \"b\n2\ncommit\n"))
	// Mid-log damage after a torn record: a batch torn inside its key,
	// then later intact batches.
	f.Add([]byte("wal 3\nset \"a\" 1\nset \"b\" 2\ncommit\nset \"c\" \nset \"d\" 4\ncommit\nset \"e\" 5\ncommit\n"))
	f.Add([]byte("wal 1\nset \"a\" 1\ncommit\ncommit\nset \"b\" x\ncommit\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := fault.NewMemFS()
		if err := fs.WriteFile("wal", data); err != nil {
			t.Fatal(err)
		}
		got, _, err := recoverGeneral(fs, "wal")
		want, corrupt, line, off := referenceReplay(data)
		if corrupt {
			var ce *WALCorruptError
			if err == nil || !errors.As(err, &ce) {
				t.Fatalf("corrupt log %q: recovery returned %v, want *WALCorruptError", data, err)
			}
			if got != nil {
				t.Fatalf("corrupt log %q: recovery leaked partial state %v", data, got)
			}
			if ce.File != "wal" || ce.Line != line || ce.Offset != off {
				t.Fatalf("corrupt log %q: error names %s:%d (byte %d), want wal:%d (byte %d): %v",
					data, ce.File, ce.Line, ce.Offset, line, off, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("clean log %q: recovery failed: %v", data, err)
		}
		if len(got) != len(want) {
			t.Fatalf("log %q: recovered %v, want %v", data, got, want)
		}
		for k, v := range want {
			if gv, ok := got[k]; !ok || (gv != v && v == v) {
				t.Fatalf("log %q: recovered %v, want %v", data, got, want)
			}
		}
		// Recovery repairs a torn tail in place (truncating discarded
		// bytes so later appends cannot land after them); the repair
		// must be idempotent and must not change the recovered state.
		again, _, err := recoverGeneral(fs, "wal")
		if err != nil {
			t.Fatalf("log %q: second recovery failed after tail repair: %v", data, err)
		}
		if len(again) != len(got) {
			t.Fatalf("log %q: tail repair changed state: %v vs %v", data, again, got)
		}
		for k, v := range got {
			if gv, ok := again[k]; !ok || (gv != v && v == v) {
				t.Fatalf("log %q: tail repair changed state: %v vs %v", data, again, got)
			}
		}
	})
}

func TestLikeMatchTable(t *testing.T) {
	cases := []struct {
		s, pattern string
		want       bool
	}{
		{"FX01", "FX%", true},
		{"FX01", "%01", true},
		{"FX01", "%X0%", true},
		{"FX01", "FX01", true},
		{"FX01", "EQ%", false},
		{"FX01", "%02", false},
		{"FX01", "%", true}, // empty core matches anything
		{"", "%", true},
		{"abc", "%%", true},
		{"abc", "abc%", true},
		{"abc", "%abc", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.pattern); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.pattern, got, c.want)
		}
	}
}

func TestUnquoteToken(t *testing.T) {
	key, rest, err := unquoteToken(`"hello" world`)
	if err != nil || key != "hello" || strings.TrimSpace(rest) != "world" {
		t.Fatalf("unquoteToken = %q, %q, %v", key, rest, err)
	}
	if _, _, err := unquoteToken(`nope`); err == nil {
		t.Fatal("missing quote should fail")
	}
	if _, _, err := unquoteToken(`"unterminated`); err == nil {
		t.Fatal("unterminated quote should fail")
	}
	key, _, err = unquoteToken(`"with \"escape\"" 1`)
	if err != nil || key != `with "escape"` {
		t.Fatalf("escaped key = %q, %v", key, err)
	}
}
