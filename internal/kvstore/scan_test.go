package kvstore

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// White-box tests of the ordered index's maintenance machinery; the
// black-box scan contract (paging, snapshot consistency, the oracle
// property under churn) lives in storetest so both engines run it.

// TestIndexFoldPurgesGhostsAndDuplicates deletes and recreates keys, forces
// a fold through the scan path, and checks the rebuilt base is sorted,
// duplicate-free, and ghost-free.
func TestIndexFoldPurgesGhostsAndDuplicates(t *testing.T) {
	s := New()
	for i := 0; i < 600; i++ {
		if _, err := s.Write(fmt.Sprintf("f/k%04d", i), Value{"v": "1"}, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 600; i += 2 {
		s.Delete(fmt.Sprintf("f/k%04d", i))
	}
	for i := 0; i < 600; i += 4 {
		if _, err := s.Write(fmt.Sprintf("f/k%04d", i), Value{"v": "2"}, 2); err != nil {
			t.Fatal(err)
		}
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.foldIndexLocked()
		if !sort.StringsAreSorted(sh.base) {
			t.Fatal("base unsorted after fold")
		}
		for i, k := range sh.base {
			if i > 0 && sh.base[i-1] == k {
				t.Fatalf("duplicate %q in base", k)
			}
			if _, live := sh.rows[k]; !live {
				t.Fatalf("ghost %q survived fold", k)
			}
		}
		if len(sh.delta) != 0 || sh.dead != 0 {
			t.Fatalf("fold left delta=%d dead=%d", len(sh.delta), sh.dead)
		}
		sh.mu.Unlock()
	}
	rows, _, err := s.ScanPrefix("f/", "", 0, Latest)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 600; i++ {
		if i%2 == 1 || i%4 == 0 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("scan found %d rows, want %d", len(rows), want)
	}
}

// TestScanExaminedLinear pins the index's cost model: paging an R-row
// region gathers each row once, plus what the lazy merge over-gathers —
// at most a couple of entries per shard per page (the unconsumed tail of
// each cursor's last chunk, and the lookahead row the next page re-reads).
// So the examined total is linear in R and independent of page count.
// Gathering limit+1 candidates from every shard per page, as a merge that
// sorts the union of per-shard pages does, examines about 32k entries here.
func TestScanExaminedLinear(t *testing.T) {
	s := New()
	const n, limit = 2000, 64
	for i := 0; i < n; i++ {
		if _, err := s.Write(fmt.Sprintf("e/k%05d", i), Value{"v": "1"}, 1); err != nil {
			t.Fatal(err)
		}
	}
	before := s.ScanExamined()
	after := ""
	pages, rows := 0, 0
	for {
		page, more, err := s.ScanPrefix("e/", after, limit, Latest)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		rows += len(page)
		if len(page) > 0 {
			after = page[len(page)-1].Key
		}
		if !more {
			break
		}
	}
	if rows != n {
		t.Fatalf("paged %d rows, want %d", rows, n)
	}
	examined := s.ScanExamined() - before
	budget := int64(n + pages*2*numShards)
	if examined > budget {
		t.Fatalf("examined %d index entries for %d rows over %d pages (budget %d): paging over-gathers",
			examined, n, pages, budget)
	}
}

// TestScanConcurrentCreateSorted pages at Latest while a writer creates a
// fixed set of rows in random order: every pass must stay sorted and
// duplicate-free as the sorted delta fills and folds underneath it. The
// writer pauses at each quarter until a page finishes, so pages provably
// interleave with creation, and a final scan must return every row.
func TestScanConcurrentCreateSorted(t *testing.T) {
	const n = 4000
	s := New()
	paged := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, k := range rand.New(rand.NewSource(7)).Perm(n) {
			if i > 0 && i%(n/4) == 0 {
				<-paged // a page runs while creation is mid-way
			}
			if err := s.WriteIdempotent(fmt.Sprintf("s/r%06d", k), Value{"v": "x"}, int64(i+1)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	scan := func() int {
		after, prev, seen := "", "", 0
		for {
			rows, more, err := s.ScanPrefix("s/", after, 97, Latest)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				if r.Key <= prev {
					t.Fatalf("unsorted/duplicate page: %q after %q", r.Key, prev)
				}
				prev, after = r.Key, r.Key
			}
			seen += len(rows)
			select {
			case paged <- struct{}{}:
			default:
			}
			if !more {
				return seen
			}
		}
	}
	midway := 0 // passes that saw rows while the writer was still creating
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			if seen := scan(); seen > 0 && seen < n {
				midway++
			}
		}
	}
	if midway == 0 {
		t.Fatal("no scan pass overlapped row creation")
	}
	if seen := scan(); seen != n {
		t.Fatalf("final scan returned %d rows, want %d", seen, n)
	}
}

// BenchmarkScanPrefixPage measures one 50-row page at a random cursor inside
// an R-row prefix region, with 100k unrelated keys elsewhere in the store.
// Its ns/op and allocs/op must not grow with R: a page costs what it returns.
func BenchmarkScanPrefixPage(b *testing.B) {
	for _, region := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("region=%d", region), func(b *testing.B) {
			s := New()
			for i := 0; i < 100000; i++ {
				s.WriteIdempotent(fmt.Sprintf("other/%06d", i), Value{"v": "x"}, 1)
			}
			for i := 0; i < region; i++ {
				s.WriteIdempotent(fmt.Sprintf("page/%06d", i), Value{"v": "x"}, 1)
			}
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				after := fmt.Sprintf("page/%06d", rng.Intn(region-50))
				rows, _, err := s.ScanPrefix("page/", after, 50, 1)
				if err != nil || len(rows) != 50 {
					b.Fatalf("page: %d rows, %v", len(rows), err)
				}
			}
		})
	}
}
