package kvstore

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestReadMissingKey(t *testing.T) {
	s := New()
	if _, _, err := s.Read("nope", Latest); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read missing key: err = %v, want ErrNotFound", err)
	}
}

func TestWriteThenReadLatest(t *testing.T) {
	s := New()
	ts, err := s.Write("k", Value{"a": "1"}, 5)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if ts != 5 {
		t.Fatalf("Write ts = %d, want 5", ts)
	}
	v, gotTS, err := s.Read("k", Latest)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if gotTS != 5 || v["a"] != "1" {
		t.Fatalf("Read = (%v, %d), want ({a:1}, 5)", v, gotTS)
	}
}

func TestReadAtTimestampPicksNewestNotAfter(t *testing.T) {
	s := New()
	for _, ts := range []int64{1, 3, 7} {
		if _, err := s.Write("k", Value{"v": fmt.Sprint(ts)}, ts); err != nil {
			t.Fatalf("Write ts=%d: %v", ts, err)
		}
	}
	cases := []struct {
		readTS int64
		wantV  string
		wantTS int64
	}{
		{1, "1", 1},
		{2, "1", 1},
		{3, "3", 3},
		{6, "3", 3},
		{7, "7", 7},
		{100, "7", 7},
	}
	for _, c := range cases {
		v, ts, err := s.Read("k", c.readTS)
		if err != nil {
			t.Fatalf("Read@%d: %v", c.readTS, err)
		}
		if v["v"] != c.wantV || ts != c.wantTS {
			t.Errorf("Read@%d = (%v,%d), want (v:%s,%d)", c.readTS, v, ts, c.wantV, c.wantTS)
		}
	}
}

func TestReadBeforeFirstVersion(t *testing.T) {
	s := New()
	if _, err := s.Write("k", Value{"v": "x"}, 10); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Read("k", 9); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read@9: err = %v, want ErrNotFound", err)
	}
}

func TestWriteStaleRejected(t *testing.T) {
	s := New()
	if _, err := s.Write("k", Value{"v": "a"}, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write("k", Value{"v": "b"}, 5); !errors.Is(err, ErrStaleWrite) {
		t.Fatalf("equal-ts Write: err = %v, want ErrStaleWrite", err)
	}
	if _, err := s.Write("k", Value{"v": "b"}, 3); !errors.Is(err, ErrStaleWrite) {
		t.Fatalf("older-ts Write: err = %v, want ErrStaleWrite", err)
	}
	// The stale write must not have modified the row.
	v, ts, err := s.Read("k", Latest)
	if err != nil || ts != 5 || v["v"] != "a" {
		t.Fatalf("after stale writes Read = (%v,%d,%v), want ({v:a},5,nil)", v, ts, err)
	}
}

func TestWriteAutoTimestamp(t *testing.T) {
	s := New()
	ts0, err := s.Write("k", Value{"v": "a"}, -1)
	if err != nil || ts0 != 0 {
		t.Fatalf("first auto Write = (%d,%v), want (0,nil)", ts0, err)
	}
	if _, err := s.Write("k", Value{"v": "b"}, 9); err != nil {
		t.Fatal(err)
	}
	ts2, err := s.Write("k", Value{"v": "c"}, -1)
	if err != nil || ts2 != 10 {
		t.Fatalf("auto Write after ts 9 = (%d,%v), want (10,nil)", ts2, err)
	}
}

func TestWriteIdempotent(t *testing.T) {
	s := New()
	if err := s.WriteIdempotent("k", Value{"v": "a"}, 3); err != nil {
		t.Fatal(err)
	}
	// Exact replay is fine.
	if err := s.WriteIdempotent("k", Value{"v": "a"}, 3); err != nil {
		t.Fatalf("replay: %v", err)
	}
	// Conflicting rewrite of the same position is not.
	if err := s.WriteIdempotent("k", Value{"v": "b"}, 3); !errors.Is(err, ErrStaleWrite) {
		t.Fatalf("conflicting rewrite: err = %v, want ErrStaleWrite", err)
	}
	// Backfill of an older, never-written position keeps order.
	if err := s.WriteIdempotent("k", Value{"v": "z"}, 7); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteIdempotent("k", Value{"v": "m"}, 5); err != nil {
		t.Fatalf("backfill: %v", err)
	}
	v, ts, err := s.Read("k", 6)
	if err != nil || ts != 5 || v["v"] != "m" {
		t.Fatalf("Read@6 = (%v,%d,%v), want ({v:m},5,nil)", v, ts, err)
	}
	v, ts, _ = s.Read("k", Latest)
	if ts != 7 || v["v"] != "z" {
		t.Fatalf("latest = (%v,%d), want ({v:z},7)", v, ts)
	}
}

func TestCheckAndWrite(t *testing.T) {
	s := New()
	// Empty row: test against "" succeeds.
	if err := s.CheckAndWrite("k", "nextBal", "", Value{"nextBal": "5"}); err != nil {
		t.Fatalf("CAW on empty row: %v", err)
	}
	// Wrong expectation fails and does not write.
	err := s.CheckAndWrite("k", "nextBal", "4", Value{"nextBal": "9"})
	if !errors.Is(err, ErrCheckFailed) {
		t.Fatalf("CAW mismatch: err = %v, want ErrCheckFailed", err)
	}
	v, _, _ := s.Read("k", Latest)
	if v["nextBal"] != "5" {
		t.Fatalf("row changed by failed CAW: %v", v)
	}
	// Correct expectation succeeds.
	if err := s.CheckAndWrite("k", "nextBal", "5", Value{"nextBal": "9", "vote": "x"}); err != nil {
		t.Fatalf("CAW match: %v", err)
	}
	v, _, _ = s.Read("k", Latest)
	if v["nextBal"] != "9" || v["vote"] != "x" {
		t.Fatalf("after CAW: %v", v)
	}
}

func TestCheckAndWriteMissingAttrTreatedAsEmpty(t *testing.T) {
	s := New()
	if _, err := s.Write("k", Value{"other": "1"}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckAndWrite("k", "absent", "", Value{"absent": "now"}); err != nil {
		t.Fatalf("CAW on missing attr: %v", err)
	}
}

func TestUpdate(t *testing.T) {
	s := New()
	err := s.Update("ctr", func(v Value) (Value, error) {
		if v != nil {
			t.Fatalf("first Update got non-nil %v", v)
		}
		return Value{"n": "1"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = s.Update("ctr", func(v Value) (Value, error) {
		if v["n"] != "1" {
			t.Fatalf("second Update got %v", v)
		}
		return Value{"n": "2"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("abort")
	if err := s.Update("ctr", func(Value) (Value, error) { return nil, sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("Update abort: err = %v", err)
	}
	v, _, _ := s.Read("ctr", Latest)
	if v["n"] != "2" {
		t.Fatalf("aborted Update changed row: %v", v)
	}
}

func TestValueCloneIsolation(t *testing.T) {
	s := New()
	in := Value{"a": "1"}
	if _, err := s.Write("k", in, 0); err != nil {
		t.Fatal(err)
	}
	in["a"] = "mutated"
	v, _, _ := s.Read("k", Latest)
	if v["a"] != "1" {
		t.Fatalf("store shared caller's map: %v", v)
	}
	v["a"] = "mutated-out"
	v2, _, _ := s.Read("k", Latest)
	if v2["a"] != "1" {
		t.Fatalf("store shared returned map: %v", v2)
	}
}

func TestGC(t *testing.T) {
	s := New()
	for ts := int64(0); ts < 10; ts++ {
		if _, err := s.Write("k", Value{"v": fmt.Sprint(ts)}, ts); err != nil {
			t.Fatal(err)
		}
	}
	dropped := s.GC("k", 6)
	if dropped != 6 {
		t.Fatalf("GC dropped %d, want 6", dropped)
	}
	// Reads at >= 6 still work.
	v, ts, err := s.Read("k", 6)
	if err != nil || ts != 6 || v["v"] != "6" {
		t.Fatalf("Read@6 after GC = (%v,%d,%v)", v, ts, err)
	}
	// Reads below the kept horizon are gone.
	if _, _, err := s.Read("k", 5); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read@5 after GC: err = %v, want ErrNotFound", err)
	}
	if n := s.Versions("k"); n != 4 {
		t.Fatalf("Versions = %d, want 4", n)
	}
	if d := s.GC("k", 0); d != 0 {
		t.Fatalf("GC below horizon dropped %d, want 0", d)
	}
}

func TestKeysAndLen(t *testing.T) {
	s := New()
	for _, k := range []string{"b", "a", "c"} {
		if _, err := s.Write(k, Value{"v": "1"}, 0); err != nil {
			t.Fatal(err)
		}
	}
	keys := s.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Fatalf("Keys = %v", keys)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestDelete(t *testing.T) {
	s := New()
	if _, err := s.Write("k", Value{"v": "1"}, 0); err != nil {
		t.Fatal(err)
	}
	s.Delete("k")
	if _, _, err := s.Read("k", Latest); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read after Delete: %v", err)
	}
	if s.Versions("k") != 0 {
		t.Fatal("versions survived Delete")
	}
	// Deleting a missing key is a no-op.
	s.Delete("absent")
	// The key is writable again from scratch.
	if _, err := s.Write("k", Value{"v": "2"}, 0); err != nil {
		t.Fatalf("rewrite after Delete: %v", err)
	}
}

func TestKeysWithPrefix(t *testing.T) {
	s := New()
	for _, k := range []string{"log/g/1", "log/g/2", "log/other/1", "data/g/x"} {
		if _, err := s.Write(k, Value{"v": "1"}, 0); err != nil {
			t.Fatal(err)
		}
	}
	got := s.KeysWithPrefix("log/g/")
	if len(got) != 2 || got[0] != "log/g/1" || got[1] != "log/g/2" {
		t.Fatalf("KeysWithPrefix = %v", got)
	}
	if got := s.KeysWithPrefix("nope/"); len(got) != 0 {
		t.Fatalf("unexpected matches: %v", got)
	}
	// A prefix equal to a full key matches that key.
	if got := s.KeysWithPrefix("data/g/x"); len(got) != 1 {
		t.Fatalf("exact prefix = %v", got)
	}
}

func TestClose(t *testing.T) {
	s := New()
	s.Close()
	if _, err := s.Write("k", Value{}, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write after Close: %v", err)
	}
	if _, _, err := s.Read("k", Latest); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read after Close: %v", err)
	}
	if err := s.CheckAndWrite("k", "a", "", Value{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("CheckAndWrite after Close: %v", err)
	}
}

// TestCheckAndWriteMutualExclusion verifies the atomicity contract the Paxos
// acceptor depends on: of N concurrent conditional writes racing on the same
// expected value, exactly one wins.
func TestCheckAndWriteMutualExclusion(t *testing.T) {
	s := New()
	const racers = 64
	var wins int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := s.CheckAndWrite("pos", "nextBal", "", Value{"nextBal": fmt.Sprint(i)})
			if err == nil {
				mu.Lock()
				wins++
				mu.Unlock()
			} else if !errors.Is(err, ErrCheckFailed) {
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if wins != 1 {
		t.Fatalf("%d racers won, want exactly 1", wins)
	}
}

func TestConcurrentDistinctKeys(t *testing.T) {
	s := New()
	const keys = 50
	var wg sync.WaitGroup
	for i := 0; i < keys; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := fmt.Sprintf("key-%d", i)
			for ts := int64(0); ts < 20; ts++ {
				if _, err := s.Write(k, Value{"v": fmt.Sprint(ts)}, ts); err != nil {
					t.Errorf("Write %s@%d: %v", k, ts, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		v, ts, err := s.Read(k, Latest)
		if err != nil || ts != 19 || v["v"] != "19" {
			t.Fatalf("Read %s = (%v,%d,%v)", k, v, ts, err)
		}
	}
}

// TestVersionFootprint pins the retained heap per stored version: a
// one-attribute version is one packed string beside its timestamp, not a
// map of its own (about 300 B). Measured as the GC-bracketed growth of the
// live heap while existing rows gain versions.
func TestVersionFootprint(t *testing.T) {
	const rows, perRow = 200, 100
	s := New()
	for i := 0; i < rows; i++ {
		if _, err := s.Write(fmt.Sprintf("k%03d", i), Value{"v": "0"}, 0); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for ts := int64(1); ts <= perRow; ts++ {
		for i := 0; i < rows; i++ {
			if _, err := s.Write(fmt.Sprintf("k%03d", i), Value{"v": "1234"}, ts); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (rows * perRow)
	t.Logf("retained %.1f B per one-attribute version", per)
	if per > 96 {
		t.Fatalf("retained %.1f B per one-attribute version, want <= 96", per)
	}
}

// TestPackedRoundTrip checks the packed version encoding: values round-trip,
// Get matches map lookup, equal values pack to equal bytes whatever the map
// order (and PackAttr to the same bytes as Pack), and ParsePacked refuses
// malformed bytes instead of misreading them.
func TestPackedRoundTrip(t *testing.T) {
	for _, v := range []Value{nil, {}, {"v": "1"}, {"b": "2", "a": "", "zz": strings.Repeat("x", 300)}} {
		p := Pack(v)
		if got := p.Value(); !got.Equal(v) {
			t.Fatalf("Pack(%v).Value() = %v", v, got)
		}
		for _, attr := range []string{"a", "b", "v", "zz", "missing"} {
			if got := p.Get(attr); got != v[attr] {
				t.Fatalf("Pack(%v).Get(%q) = %q, want %q", v, attr, got, v[attr])
			}
		}
		if q, err := ParsePacked([]byte(p)); err != nil || q != p {
			t.Fatalf("ParsePacked(Pack(%v)) = %q, %v", v, q, err)
		}
		if Pack(v.Clone()) != p {
			t.Fatalf("Pack(%v) is not canonical", v)
		}
	}
	if big := strings.Repeat("y", 200); PackAttr("v", big) != Pack(Value{"v": big}) {
		t.Fatal("PackAttr and Pack disagree")
	}
	for name, b := range map[string][]byte{
		"empty":     {},
		"count":     {0x02, 0x01, 'a', 0x01, 'b'},
		"value len": {0x01, 0x01, 'a', 0x05, 'b'},
		"order":     {0x02, 0x01, 'b', 0x00, 0x01, 'a', 0x00},
		"duplicate": {0x02, 0x01, 'a', 0x00, 0x01, 'a', 0x00},
		"trailing":  {0x01, 0x01, 'a', 0x00, 0xff},
		"overlong":  {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
	} {
		if _, err := ParsePacked(b); err == nil {
			t.Fatalf("ParsePacked accepted %s: %x", name, b)
		}
	}
}
