package kvstore

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestApplyBatchBasic(t *testing.T) {
	s := New()
	err := s.ApplyBatch([]BatchWrite{
		{Key: "a", Value: PackAttr("v", "1"), TS: 1},
		{Key: "b", Value: PackAttr("v", "2"), TS: 1},
		{Key: "a", Value: PackAttr("v", "3"), TS: 2},
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
	if v, _, err := s.Read("b", Latest); err != nil || v["v"] != "2" {
		t.Fatalf("b = %v %v", v, err)
	}
}

func TestApplyBatchEmpty(t *testing.T) {
	s := New()
	if err := s.ApplyBatch(nil); err != nil {
		t.Fatal(err)
	}
}

func TestApplyBatchRejectsImplicitTimestamp(t *testing.T) {
	s := New()
	err := s.ApplyBatch([]BatchWrite{{Key: "a", Value: PackAttr("v", "1"), TS: -1}})
	if err == nil {
		t.Fatal("negative timestamp accepted")
	}
}

func TestApplyBatchIdempotentReplay(t *testing.T) {
	s := New()
	batch := []BatchWrite{
		{Key: "a", Value: PackAttr("v", "1"), TS: 1},
		{Key: "b", Value: PackAttr("v", "2"), TS: 1},
	}
	for i := 0; i < 3; i++ {
		if err := s.ApplyBatch(batch); err != nil {
			t.Fatalf("replay #%d: %v", i, err)
		}
	}
	if n := s.Versions("a"); n != 1 {
		t.Fatalf("a has %d versions, want 1", n)
	}
}

// TestApplyBatchConflictAppliesNothing is the atomicity contract: a batch
// that conflicts with existing state must not mutate any row, including rows
// the batch would have created.
func TestApplyBatchConflictAppliesNothing(t *testing.T) {
	s := New()
	if _, err := s.Write("clash", Value{"v": "old"}, 5); err != nil {
		t.Fatal(err)
	}
	err := s.ApplyBatch([]BatchWrite{
		{Key: "fresh1", Value: PackAttr("v", "x"), TS: 1},
		{Key: "clash", Value: PackAttr("v", "DIFFERENT"), TS: 5},
		{Key: "fresh2", Value: PackAttr("v", "y"), TS: 1},
	})
	if !errors.Is(err, ErrStaleWrite) {
		t.Fatalf("err = %v, want ErrStaleWrite", err)
	}
	for _, key := range []string{"fresh1", "fresh2"} {
		if _, _, err := s.Read(key, Latest); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s was written by a failed batch", key)
		}
	}
	if v, _, _ := s.Read("clash", Latest); v["v"] != "old" {
		t.Fatalf("clash overwritten: %v", v)
	}
}

func TestApplyBatchBackfillKeepsHistoricalReads(t *testing.T) {
	s := New()
	if err := s.ApplyBatch([]BatchWrite{{Key: "k", Value: PackAttr("v", "late"), TS: 10}}); err != nil {
		t.Fatal(err)
	}
	// Backfill an older position after a newer one exists (out-of-order
	// apply across batches).
	if err := s.ApplyBatch([]BatchWrite{{Key: "k", Value: PackAttr("v", "early"), TS: 4}}); err != nil {
		t.Fatal(err)
	}
	if v, ts, err := s.Read("k", 7); err != nil || ts != 4 || v["v"] != "early" {
		t.Fatalf("k@7 = %v ts=%d %v", v, ts, err)
	}
	if v, _, err := s.Read("k", Latest); err != nil || v["v"] != "late" {
		t.Fatalf("k@latest = %v %v", v, err)
	}
}

// TestApplyBatchConcurrentIdenticalBatches drives many goroutines replaying
// the same batches (the replicated-log duplicate-delivery case) and checks
// convergence; run with -race.
func TestApplyBatchConcurrentIdenticalBatches(t *testing.T) {
	s := New()
	const goroutines = 8
	const positions = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ts := int64(1); ts <= positions; ts++ {
				batch := []BatchWrite{
					{Key: "shared", Value: PackAttr("v", fmt.Sprint(ts)), TS: ts},
					{Key: fmt.Sprintf("k%d", ts%7), Value: PackAttr("v", fmt.Sprint(ts)), TS: ts},
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
	if v, _, err := s.Read("shared", Latest); err != nil || v["v"] != fmt.Sprint(positions) {
		t.Fatalf("shared latest = %v %v", v, err)
	}
}

// TestApplyBatchConcurrentDisjointShards checks that batches touching
// different keys do not corrupt each other; run with -race.
func TestApplyBatchConcurrentDisjointShards(t *testing.T) {
	s := New()
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ts := int64(1); ts <= 40; ts++ {
				batch := make([]BatchWrite, 0, 4)
				for k := 0; k < 4; k++ {
					batch = append(batch, BatchWrite{
						Key:   fmt.Sprintf("g%d-k%d", g, k),
						Value: PackAttr("v", fmt.Sprint(ts)),
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
			if v, _, err := s.Read(fmt.Sprintf("g%d-k%d", g, k), Latest); err != nil || v["v"] != "40" {
				t.Fatalf("g%d-k%d = %v %v", g, k, v, err)
			}
		}
	}
}

func TestApplyBatchClosedStore(t *testing.T) {
	s := New()
	s.Close()
	err := s.ApplyBatch([]BatchWrite{{Key: "a", Value: PackAttr("v", "1"), TS: 1}})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// BenchmarkApplyBatch vs BenchmarkWriteLoop measures the batched apply path
// against the seed's per-key WriteIdempotent loop for the same workload: 64
// keys landing at one log position per iteration.
func BenchmarkApplyBatch(b *testing.B) {
	s := New()
	const keys = 64
	batch := make([]BatchWrite, keys)
	names := make([]string, keys)
	for k := range names {
		names[k] = fmt.Sprintf("data/g/key-%d", k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := int64(i + 1)
		for k := 0; k < keys; k++ {
			batch[k] = BatchWrite{Key: names[k], Value: PackAttr("v", "x"), TS: ts}
		}
		if err := s.ApplyBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteLoop(b *testing.B) {
	s := New()
	const keys = 64
	names := make([]string, keys)
	for k := range names {
		names[k] = fmt.Sprintf("data/g/key-%d", k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := int64(i + 1)
		for k := 0; k < keys; k++ {
			if err := s.WriteIdempotent(names[k], Value{"v": "x"}, ts); err != nil {
				b.Fatal(err)
			}
		}
	}
}
