package disk

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"io"
	"testing"

	"paxoscp/internal/kvstore"
)

// recordingEngine encodes every appended mutation exactly as Engine.Append
// does, without any I/O, so a test can inspect the record bytes a store
// operation produces.
type recordingEngine struct{ buf []byte }

func (e *recordingEngine) Append(muts []kvstore.Mutation) (uint64, error) {
	for _, m := range muts {
		e.buf = appendRecord(e.buf, m)
	}
	return 1, nil
}
func (e *recordingEngine) Sync(uint64) error { return nil }
func (e *recordingEngine) Close() error      { return nil }

// walGolden is the record stream, one hex record per line, that the
// operations in TestWALRecordsGolden produce. Every record was generated by
// the map-based encoder this engine used before versions were stored packed
// (the same appendRecord fed the equivalent map-valued mutations), so data
// directories written before that change replay byte for byte. The lone OpGC
// record is the one the second CheckAndWrite adds to keep its row
// single-version; its bytes are the old encoder's OpGC.
var walGolden = []string{
	"1673942481010c646174612f672f616c6963650e01017603313030",                                       // Write data/g/alice@7
	"15cbb7792201056d756c746906030161013101620132027a7a00",                                         // Write multi@3, 3 attrs
	"099c7f005a0105656d7074790800",                                                                 // Write empty@4, no attrs
	"21ccf92a7c01097061786f732f672f310002076e65787442616c053635353337037365710131",                 // CheckAndWrite, new row
	"29bb255fa501097061786f732f672f310203076e65787442616c0631333130373303736571013204766f74650178", // CheckAndWrite, replace
	"0c0fe388bb03097061786f732f672f3102",                                                           // its OpGC
	"1228130b92010a646174612f672f626f62120101760135",                                               // ApplyBatch element 1
	"179325d6da01076c6f672f672f39120105656e74727905000162696e",                                     // ApplyBatch element 2
	"113a149ecb01066d6574612f670001046c6173740139",                                                 // Update meta/g
}

// TestWALRecordsGolden pins the WAL format: Write, CheckAndWrite, ApplyBatch
// and Update append records byte-identical to the golden stream, and the
// golden stream replays into the same rows.
func TestWALRecordsGolden(t *testing.T) {
	s := kvstore.New()
	rec := &recordingEngine{}
	s.AttachEngine(rec)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := s.Write("data/g/alice", kvstore.Value{"v": "100"}, 7)
	must(err)
	_, err = s.Write("multi", kvstore.Value{"zz": "", "b": "2", "a": "1"}, 3)
	must(err)
	_, err = s.Write("empty", kvstore.Value{}, 4)
	must(err)
	must(s.CheckAndWrite("paxos/g/1", "seq", "", kvstore.Value{"seq": "1", "nextBal": "65537"}))
	must(s.CheckAndWrite("paxos/g/1", "seq", "1", kvstore.Value{"seq": "2", "nextBal": "131073", "vote": "x"}))
	must(s.ApplyBatch([]kvstore.BatchWrite{
		{Key: "data/g/bob", Value: kvstore.PackAttr("v", "5"), TS: 9},
		{Key: "log/g/9", Value: kvstore.PackAttr("entry", "\x00\x01bin"), TS: 9},
	}))
	must(s.Update("meta/g", func(kvstore.Value) (kvstore.Value, error) {
		return kvstore.Value{"last": "9"}, nil
	}))

	var want []byte
	for _, h := range walGolden {
		b, err := hex.DecodeString(h)
		must(err)
		want = append(want, b...)
	}
	if !bytes.Equal(rec.buf, want) {
		t.Fatalf("record stream changed:\n got %x\nwant %x", rec.buf, want)
	}

	replayed := kvstore.New()
	br := bufio.NewReader(bytes.NewReader(want))
	for {
		m, err := readRecord(br)
		if err == io.EOF {
			break
		}
		must(err)
		must(replayed.ApplyMutation(m))
	}
	for _, k := range s.Keys() {
		v, ts, err := s.Read(k, kvstore.Latest)
		must(err)
		rv, rts, err := replayed.Read(k, kvstore.Latest)
		if err != nil || rts != ts || !rv.Equal(v) || replayed.Versions(k) != s.Versions(k) {
			t.Fatalf("replayed %s = (%v@%d, %d versions, %v), want (%v@%d, %d versions)",
				k, rv, rts, replayed.Versions(k), err, v, ts, s.Versions(k))
		}
	}
	if got := replayed.Versions("paxos/g/1"); got != 1 {
		t.Fatalf("replayed acceptor row has %d versions, want 1", got)
	}
}
