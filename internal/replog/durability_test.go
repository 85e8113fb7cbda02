package replog

import (
	"testing"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/kvstore/disk"
)

// reopen simulates power loss and recovery for a disk-backed log: crash the
// engine (discarding anything not yet durable), then recover the directory
// and rebuild the log from the recovered rows.
func reopen(t *testing.T, dir string, eng *disk.Engine, store *kvstore.Store, l *Log) (*Log, *kvstore.Store, *disk.Engine) {
	t.Helper()
	l.Close()
	eng.Crash()
	store.Close()
	store2, eng2, err := disk.Open(dir, disk.Options{Fsync: disk.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store2.Close() })
	l2 := Open(store2, "g")
	t.Cleanup(l2.Close)
	return l2, store2, eng2
}

// TestSnapshotInstallThenCrashReplay exercises the interplay between a peer
// snapshot install (the core.Service catch-up path: data rows via ApplyBatch,
// then InstallSnapshot jumps the watermark and adopts the epoch) and the disk
// engine's own WAL/snapshot recovery. After a power loss, recovery must
// rebuild the installed horizon, the adopted epoch, and everything appended
// above the horizon — the install must be exactly as durable as a normal
// sequence of applies.
func TestSnapshotInstallThenCrashReplay(t *testing.T) {
	dir := t.TempDir()
	store, eng, err := disk.Open(dir, disk.Options{Fsync: disk.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	l := Open(store, "g")

	// A peer snapshot at horizon 7: data rows land first (ApplyBatch with
	// original version timestamps), then the watermark jumps.
	err = store.ApplyBatch([]kvstore.BatchWrite{
		{Key: "x", Value: kvstore.PackAttr("v", "7"), TS: 7},
		{Key: "y", Value: kvstore.PackAttr("v", "5"), TS: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	epoch := EpochState{Epoch: 3, Master: "B", Pos: 6}
	if err := l.InstallSnapshot(7, epoch, MigrationState{}); err != nil {
		t.Fatal(err)
	}
	// Normal traffic continues above the horizon.
	if _, err := l.Append(8, testEntry("t8", 7, map[string]string{"x": "8"})); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitApplied(waitCtx(t), 8); err != nil {
		t.Fatal(err)
	}

	l2, store2, _ := reopen(t, dir, eng, store, l)
	if got := l2.Applied(); got != 8 {
		t.Fatalf("recovered watermark = %d, want 8 (snapshot horizon 7 + one append)", got)
	}
	if got := l2.CompactedTo(); got != 7 {
		t.Fatalf("recovered compaction horizon = %d, want 7", got)
	}
	if got := l2.Epoch(); got != epoch {
		t.Fatalf("recovered epoch = %+v, want %+v (adopted from the snapshot)", got, epoch)
	}
	if _, ok := l2.Entry(8); !ok {
		t.Fatal("entry appended above the installed horizon lost in recovery")
	}
	for key, want := range map[string]string{"x": "7", "y": "5"} {
		v, _, err := store2.Read(key, 7)
		if err != nil || v["v"] != want {
			t.Fatalf("installed data row %q after recovery = %v (err %v), want v=%s", key, v, err, want)
		}
	}
}

// TestInterruptedInstallRecoversBehindData pins invariant D3 for the install
// path: the data batch is logged before the meta-row watermark jump, so a
// crash between the two recovers with the old watermark and the new data
// rows — watermark ≤ data, never the reverse (a watermark ahead of its data
// would serve phantom log positions). Re-running the install afterwards
// completes it, exactly as the catch-up protocol would on its next attempt.
func TestInterruptedInstallRecoversBehindData(t *testing.T) {
	dir := t.TempDir()
	store, eng, err := disk.Open(dir, disk.Options{Fsync: disk.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	l := Open(store, "g")
	if _, err := l.Append(1, testEntry("t1", 0, map[string]string{"x": "1"})); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitApplied(waitCtx(t), 1); err != nil {
		t.Fatal(err)
	}
	// Data rows land... and the power goes out before InstallSnapshot.
	err = store.ApplyBatch([]kvstore.BatchWrite{
		{Key: "x", Value: kvstore.PackAttr("v", "7"), TS: 7},
	})
	if err != nil {
		t.Fatal(err)
	}

	l2, store2, _ := reopen(t, dir, eng, store, l)
	if got := l2.Applied(); got != 1 {
		t.Fatalf("recovered watermark = %d, want 1 (the install never committed its meta row)", got)
	}
	if v, _, err := store2.Read("x", 7); err != nil || v["v"] != "7" {
		t.Fatalf("data row from the interrupted install = %v (err %v), want v=7", v, err)
	}
	// The retried install is idempotent over the surviving data rows.
	if err := l2.InstallSnapshot(7, EpochState{Epoch: 2, Master: "B", Pos: 6}, MigrationState{}); err != nil {
		t.Fatalf("retried install: %v", err)
	}
	if got := l2.Applied(); got != 7 {
		t.Fatalf("watermark after retried install = %d, want 7", got)
	}
}
