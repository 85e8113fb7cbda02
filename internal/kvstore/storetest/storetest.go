// Package storetest is the engine-independent kvstore conformance suite:
// the batch atomicity and concurrency contracts every storage backend must
// uphold, run against the in-memory engine (internal/kvstore's external
// tests) and the disk engine (internal/kvstore/disk) so the two cannot
// drift apart. Tier-1 `go test ./...` runs the full matrix.
package storetest

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"paxoscp/internal/kvstore"
)

// Factory returns a fresh store for one subtest. The factory is responsible
// for cleanup (t.Cleanup); each subtest gets its own store.
type Factory func(t *testing.T) *kvstore.Store

// Run exercises the conformance suite against stores built by factory.
func Run(t *testing.T, factory Factory) {
	t.Run("BatchBasic", func(t *testing.T) { batchBasic(t, factory(t)) })
	t.Run("BatchEmpty", func(t *testing.T) { batchEmpty(t, factory(t)) })
	t.Run("BatchRejectsImplicitTimestamp", func(t *testing.T) { batchRejectsImplicitTS(t, factory(t)) })
	t.Run("BatchIdempotentReplay", func(t *testing.T) { batchIdempotentReplay(t, factory(t)) })
	t.Run("BatchConflictAppliesNothing", func(t *testing.T) { batchConflictAppliesNothing(t, factory(t)) })
	t.Run("BatchBackfillKeepsHistoricalReads", func(t *testing.T) { batchBackfill(t, factory(t)) })
	t.Run("BatchConcurrentIdenticalBatches", func(t *testing.T) { batchConcurrentIdentical(t, factory(t)) })
	t.Run("BatchConcurrentDisjointShards", func(t *testing.T) { batchConcurrentDisjoint(t, factory(t)) })
	t.Run("WriteFamily", func(t *testing.T) { writeFamily(t, factory(t)) })
	t.Run("ClosedStore", func(t *testing.T) { closedStore(t, factory(t)) })
	runScan(t, factory)
}

func batchBasic(t *testing.T, s *kvstore.Store) {
	err := s.ApplyBatch([]kvstore.BatchWrite{
		{Key: "a", Value: kvstore.PackAttr("v", "1"), TS: 1},
		{Key: "b", Value: kvstore.PackAttr("v", "2"), TS: 1},
		{Key: "a", Value: kvstore.PackAttr("v", "3"), TS: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _, err := s.Read("a", 1); err != nil || v["v"] != "1" {
		t.Fatalf("a@1 = %v %v", v, err)
	}
	if v, _, err := s.Read("a", 2); err != nil || v["v"] != "3" {
		t.Fatalf("a@2 = %v %v", v, err)
	}
	if v, _, err := s.Read("b", kvstore.Latest); err != nil || v["v"] != "2" {
		t.Fatalf("b = %v %v", v, err)
	}
}

func batchEmpty(t *testing.T, s *kvstore.Store) {
	if err := s.ApplyBatch(nil); err != nil {
		t.Fatal(err)
	}
}

func batchRejectsImplicitTS(t *testing.T, s *kvstore.Store) {
	err := s.ApplyBatch([]kvstore.BatchWrite{{Key: "a", Value: kvstore.PackAttr("v", "1"), TS: -1}})
	if err == nil {
		t.Fatal("negative timestamp accepted")
	}
}

func batchIdempotentReplay(t *testing.T, s *kvstore.Store) {
	for i := 0; i < 3; i++ {
		batch := []kvstore.BatchWrite{
			{Key: "a", Value: kvstore.PackAttr("v", "1"), TS: 1},
			{Key: "b", Value: kvstore.PackAttr("v", "2"), TS: 1},
		}
		if err := s.ApplyBatch(batch); err != nil {
			t.Fatalf("replay #%d: %v", i, err)
		}
	}
	if n := s.Versions("a"); n != 1 {
		t.Fatalf("a has %d versions, want 1", n)
	}
}

// batchConflictAppliesNothing is the atomicity contract: a batch that
// conflicts with existing state must not mutate any row, including rows the
// batch would have created.
func batchConflictAppliesNothing(t *testing.T, s *kvstore.Store) {
	if _, err := s.Write("clash", kvstore.Value{"v": "old"}, 5); err != nil {
		t.Fatal(err)
	}
	err := s.ApplyBatch([]kvstore.BatchWrite{
		{Key: "fresh1", Value: kvstore.PackAttr("v", "x"), TS: 1},
		{Key: "clash", Value: kvstore.PackAttr("v", "DIFFERENT"), TS: 5},
		{Key: "fresh2", Value: kvstore.PackAttr("v", "y"), TS: 1},
	})
	if !errors.Is(err, kvstore.ErrStaleWrite) {
		t.Fatalf("err = %v, want ErrStaleWrite", err)
	}
	for _, key := range []string{"fresh1", "fresh2"} {
		if _, _, err := s.Read(key, kvstore.Latest); !errors.Is(err, kvstore.ErrNotFound) {
			t.Fatalf("%s was written by a failed batch", key)
		}
	}
	if v, _, _ := s.Read("clash", kvstore.Latest); v["v"] != "old" {
		t.Fatalf("clash overwritten: %v", v)
	}
}

func batchBackfill(t *testing.T, s *kvstore.Store) {
	if err := s.ApplyBatch([]kvstore.BatchWrite{{Key: "k", Value: kvstore.PackAttr("v", "late"), TS: 10}}); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyBatch([]kvstore.BatchWrite{{Key: "k", Value: kvstore.PackAttr("v", "early"), TS: 4}}); err != nil {
		t.Fatal(err)
	}
	if v, ts, err := s.Read("k", 7); err != nil || ts != 4 || v["v"] != "early" {
		t.Fatalf("k@7 = %v ts=%d %v", v, ts, err)
	}
	if v, _, err := s.Read("k", kvstore.Latest); err != nil || v["v"] != "late" {
		t.Fatalf("k@latest = %v %v", v, err)
	}
}

// batchConcurrentIdentical drives many goroutines replaying the same batches
// (the replicated-log duplicate-delivery case) and checks convergence.
func batchConcurrentIdentical(t *testing.T, s *kvstore.Store) {
	const goroutines = 8
	const positions = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ts := int64(1); ts <= positions; ts++ {
				batch := []kvstore.BatchWrite{
					{Key: "shared", Value: kvstore.PackAttr("v", fmt.Sprint(ts)), TS: ts},
					{Key: fmt.Sprintf("k%d", ts%7), Value: kvstore.PackAttr("v", fmt.Sprint(ts)), TS: ts},
				}
				if err := s.ApplyBatch(batch); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := s.Versions("shared"); n != positions {
		t.Fatalf("shared has %d versions, want %d", n, positions)
	}
	if v, _, err := s.Read("shared", kvstore.Latest); err != nil || v["v"] != fmt.Sprint(positions) {
		t.Fatalf("shared latest = %v %v", v, err)
	}
}

func batchConcurrentDisjoint(t *testing.T, s *kvstore.Store) {
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ts := int64(1); ts <= 40; ts++ {
				batch := make([]kvstore.BatchWrite, 0, 4)
				for k := 0; k < 4; k++ {
					batch = append(batch, kvstore.BatchWrite{
						Key:   fmt.Sprintf("g%d-k%d", g, k),
						Value: kvstore.PackAttr("v", fmt.Sprint(ts)),
						TS:    ts,
					})
				}
				if err := s.ApplyBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		for k := 0; k < 4; k++ {
			if v, _, err := s.Read(fmt.Sprintf("g%d-k%d", g, k), kvstore.Latest); err != nil || v["v"] != "40" {
				t.Fatalf("g%d-k%d = %v %v", g, k, v, err)
			}
		}
	}
}

// writeFamily covers the non-batch mutating operations every backend must
// support identically: Write, WriteIdempotent, CheckAndWrite, Update, GC,
// Delete.
func writeFamily(t *testing.T, s *kvstore.Store) {
	if _, err := s.Write("w", kvstore.Value{"v": "1"}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write("w", kvstore.Value{"v": "0"}, 1); !errors.Is(err, kvstore.ErrStaleWrite) {
		t.Fatalf("stale write: err=%v, want ErrStaleWrite", err)
	}
	if err := s.WriteIdempotent("w", kvstore.Value{"v": "1"}, 1); err != nil {
		t.Fatalf("identical rewrite: %v", err)
	}
	if err := s.CheckAndWrite("caw", "state", "", kvstore.Value{"state": "init"}); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckAndWrite("caw", "state", "wrong", kvstore.Value{"state": "x"}); !errors.Is(err, kvstore.ErrCheckFailed) {
		t.Fatalf("check: err=%v, want ErrCheckFailed", err)
	}
	if err := s.Update("caw", func(v kvstore.Value) (kvstore.Value, error) {
		v["state"] = "updated"
		return v, nil
	}); err != nil {
		t.Fatal(err)
	}
	if v, _, err := s.Read("caw", kvstore.Latest); err != nil || v["state"] != "updated" {
		t.Fatalf("caw = %v %v", v, err)
	}
	for ts := int64(2); ts <= 6; ts++ {
		if err := s.WriteIdempotent("w", kvstore.Value{"v": fmt.Sprint(ts)}, ts); err != nil {
			t.Fatal(err)
		}
	}
	if dropped := s.GC("w", 4); dropped != 3 {
		t.Fatalf("GC dropped %d, want 3", dropped)
	}
	s.Delete("caw")
	if _, _, err := s.Read("caw", kvstore.Latest); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("deleted key still readable: err=%v", err)
	}
}

func closedStore(t *testing.T, s *kvstore.Store) {
	s.Close()
	err := s.ApplyBatch([]kvstore.BatchWrite{{Key: "a", Value: kvstore.PackAttr("v", "1"), TS: 1}})
	if !errors.Is(err, kvstore.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, err := s.Write("a", kvstore.Value{"v": "1"}, 1); !errors.Is(err, kvstore.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}
