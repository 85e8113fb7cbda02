package kvstore

import (
	"slices"
	"strings"
)

// Ordered key iteration (DESIGN.md §16). Each shard keeps a sorted index of
// its keys beside the hash map: a sorted `base`, a small sorted `delta` of
// recent inserts, and `dead`, the deletes since the last fold. Deletes leave
// ghosts (index entries whose row left the map) that gathers skip by checking
// the rows map, the liveness truth; a key recreated while its ghost is still
// indexed reuses that entry, so base ∪ delta never holds a key twice.
//
// Cost model. An insert is a binary search of delta (and of base while
// ghosts exist) plus an ordered insert into delta, moving at most
// indexDeltaCap string headers; a full delta folds into base with one
// backward in-place merge. A gather on one shard is two binary searches and
// a merge walk over just the entries it returns. ScanPrefix runs a lazy
// k-way merge over one cursor per shard: each cursor gathers chunks of about
// limit/numShards entries, refilling only when the merge has consumed its
// chunk and needs the shard's next key. A page of L rows therefore costs
// numShards gathers of O(log n) each plus O(L log numShards) merge work and
// about L plus a few entries per shard examined, independent of region and
// store size. No two shard locks are ever held at once, and rows are
// resolved under their row locks with no shard lock held.

const (
	// indexDeltaCap is the delta size that triggers a fold. Every insert
	// moves up to this many string headers under the shard lock, so the cap
	// stays small: 4096 measurably slowed row creation on the commit path.
	indexDeltaCap = 256
	// indexDeadMin is the ghost count below which gathers never bother
	// rebuilding base, whatever the ratio.
	indexDeadMin = 256
	// scanChunkMax caps a cursor's chunk, so an unbounded scan
	// preallocates a bounded buffer and grows it by refills.
	scanChunkMax = 64
)

// noteInsertLocked records a newly created row in the ordered index.
// Caller must hold sh.mu (write).
func (sh *shard) noteInsertLocked(key string) {
	// Ghosts exist only while deletes are unfolded (dead > 0); a recreated
	// row's ghost entry is simply live again.
	if sh.dead > 0 {
		if _, ghost := slices.BinarySearch(sh.base, key); ghost {
			return
		}
	}
	i, ghost := slices.BinarySearch(sh.delta, key)
	if ghost {
		return
	}
	sh.delta = slices.Insert(sh.delta, i, key)
	if len(sh.delta) >= indexDeltaCap {
		sh.foldIndexLocked()
	}
}

// noteDeleteLocked records a row deletion (a ghost now sits in base or
// delta until the next fold). Caller must hold sh.mu (write).
func (sh *shard) noteDeleteLocked() {
	sh.dead++
}

// foldIndexLocked purges ghosts (when any deletes happened since the last
// fold) and merges delta into base in place, from the back, so the merge
// never overwrites an unread base entry. Caller must hold sh.mu (write).
func (sh *shard) foldIndexLocked() {
	if sh.dead > 0 {
		sh.base = sh.liveKeys(sh.base)
		sh.delta = sh.liveKeys(sh.delta)
		sh.dead = 0
	}
	n, m := len(sh.base), len(sh.delta)
	if m == 0 {
		return
	}
	sh.base = slices.Grow(sh.base, m)[:n+m]
	i, j := n-1, m-1
	for k := n + m - 1; j >= 0; k-- {
		if i >= 0 && sh.base[i] > sh.delta[j] {
			sh.base[k] = sh.base[i]
			i--
		} else {
			sh.base[k] = sh.delta[j]
			j--
		}
	}
	clear(sh.delta)
	sh.delta = sh.delta[:0]
}

// liveKeys filters keys in place down to those whose row is in the map.
// Caller must hold sh.mu (write).
func (sh *shard) liveKeys(keys []string) []string {
	live := keys[:0]
	for _, k := range keys {
		if _, ok := sh.rows[k]; ok {
			live = append(live, k)
		}
	}
	clear(keys[len(live):])
	return live
}

// seek returns the index of the first key in sorted keys that is in range:
// carrying prefix (>= prefix) and strictly after `after`.
func seek(keys []string, prefix, after string) int {
	if after >= prefix {
		i, found := slices.BinarySearch(keys, after)
		if found {
			i++
		}
		return i
	}
	i, _ := slices.BinarySearch(keys, prefix)
	return i
}

// scanCand is one index candidate a gather produced: a key in range and the
// row pointer pinned under the shard lock. Liveness and visibility are
// resolved later under the row lock.
type scanCand struct {
	key string
	r   *row
}

// gather appends to dst up to max candidates — live index entries whose keys
// carry prefix and sort strictly after `after` — in ascending order, and
// reports whether further in-range entries remain past the last one
// returned. Prefixed keys are contiguous in sorted order, so each walk stops
// at its first unprefixed entry.
func (sh *shard) gather(dst []scanCand, prefix, after string, max int) ([]scanCand, bool) {
	sh.mu.RLock()
	if sh.dead >= indexDeadMin && sh.dead*2 >= len(sh.base) {
		sh.mu.RUnlock()
		sh.mu.Lock()
		sh.foldIndexLocked()
		sh.mu.Unlock()
		sh.mu.RLock()
	}
	defer sh.mu.RUnlock()
	base, delta := sh.base, sh.delta
	i, j := seek(base, prefix, after), seek(delta, prefix, after)
	for n := 0; ; {
		inBase := i < len(base) && strings.HasPrefix(base[i], prefix)
		inDelta := j < len(delta) && strings.HasPrefix(delta[j], prefix)
		if !inBase && !inDelta {
			return dst, false
		}
		if n == max {
			return dst, true
		}
		var k string
		if inBase && (!inDelta || base[i] < delta[j]) {
			k = base[i]
			i++
		} else {
			k = delta[j]
			j++
		}
		if r, live := sh.rows[k]; live {
			dst = append(dst, scanCand{key: k, r: r})
			n++
		}
	}
}

// cursor is one shard's position in ScanPrefix's merge: buf[next:] are the
// gathered, unconsumed candidates, more says the shard has in-range entries
// past buf, and chunk is the size of the next refill.
type cursor struct {
	sh    *shard
	buf   []scanCand
	next  int
	more  bool
	chunk int
}

func (c *cursor) head() string { return c.buf[c.next].key }

// fill replaces the cursor's buffer with the next chunk of candidates after
// `after`, counts them as examined, and reports whether any arrived.
func (c *cursor) fill(s *Store, prefix, after string) bool {
	c.buf, c.more = c.sh.gather(c.buf[:0], prefix, after, c.chunk)
	c.next = 0
	s.scanExamined.Add(int64(len(c.buf)))
	return len(c.buf) > 0
}

// cursorHeap is a binary min-heap of cursors ordered by head key.
type cursorHeap []*cursor

func (h cursorHeap) down(i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r].head() < h[m].head() {
			m = r
		}
		if h[i].head() <= h[m].head() {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// ScanRow is one visible row returned by ScanPrefix.
type ScanRow struct {
	Key string
	Val Value
	TS  int64
}

// ScanPrefix returns up to limit rows whose keys carry prefix and sort
// strictly after `after` (the resume cursor; pass "" to start at the
// prefix), in ascending key order, each resolved at timestamp ts exactly as
// Read would (ts < 0 reads the latest version). Rows with no version at or
// before ts — and deleted rows — are skipped. The second result reports
// whether more rows follow (pass the last returned key as the next page's
// cursor). limit <= 0 means no limit.
//
// Pages are snapshot-consistent at ts under the store's watermark
// discipline: provided every write with a version timestamp <= ts completed
// before the scan began (the transaction tier serves scans at an
// applied-watermark position, which only advances after a batch fully
// lands), a page sequence at pinned ts returns exactly the keys visible at
// ts, each once, regardless of concurrent writers at higher timestamps.
// Scans at Latest make no snapshot claim — only that each returned page is
// sorted and duplicate-free. Concurrent Delete (a scavenge operation, not a
// versioned write) races non-deterministically; the service layer pins
// compaction below an in-flight scan's position so scavenge never removes a
// row the scan could still return.
func (s *Store) ScanPrefix(prefix, after string, limit int, ts int64) ([]ScanRow, bool, error) {
	if s.isClosed() {
		return nil, false, ErrClosed
	}
	if limit <= 0 {
		limit = int(^uint(0) >> 2) // effectively unbounded
	}
	want := limit + 1 // one extra resolves `more` exactly
	chunk := min(want/numShards+1, scanChunkMax)
	backing := make([]scanCand, numShards*chunk)
	var cursors [numShards]cursor
	var heapArr [numShards]*cursor
	h := cursorHeap(heapArr[:0])
	for i, sh := range s.shards {
		c := &cursors[i]
		c.sh, c.chunk = sh, chunk
		c.buf = backing[i*chunk : i*chunk : (i+1)*chunk]
		if c.fill(s, prefix, after) {
			h = append(h, c)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	out := make([]ScanRow, 0, min(want, 256))
	for len(h) > 0 {
		c := h[0]
		cand := c.buf[c.next]
		c.next++
		if row, ok := s.resolve(cand, ts); ok {
			out = append(out, row)
			if len(out) == want {
				return out[:limit], true, nil
			}
		}
		if c.next == len(c.buf) {
			// Refill only now that the merge needs this shard's next key,
			// never past what the page still needs.
			c.chunk = min(c.chunk, want-len(out))
			if !c.more || !c.fill(s, prefix, cand.key) {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
		}
		h.down(0)
	}
	return out, false, nil
}

// resolve reads candidate c at ts under its row lock: ok is false when the
// row has no version visible at ts or was deleted since the gather.
func (s *Store) resolve(c scanCand, ts int64) (ScanRow, bool) {
	r := c.r
	r.mu.Lock()
	for r.gone {
		// Deleted (and possibly recreated) since the gather pinned it:
		// re-resolve through the map like lockPinned, but without creating.
		r.mu.Unlock()
		if r = s.getRow(c.key, false); r == nil {
			return ScanRow{}, false
		}
		r.mu.Lock()
	}
	defer r.mu.Unlock()
	v := r.visible(ts)
	if v == nil {
		return ScanRow{}, false
	}
	return ScanRow{Key: c.key, Val: v.val.Value(), TS: v.ts}, true
}

// ScanExamined returns the cumulative count of index entries ScanPrefix's
// gathers have returned over the store's lifetime, whether or not the merge
// went on to resolve them — so it also sees over-gathering. The regression
// tests use it to pin per-page cost: paging a region examines each row once
// plus a few entries per shard per page, so the total is linear in region
// size rather than quadratic.
func (s *Store) ScanExamined() int64 {
	return s.scanExamined.Load()
}
