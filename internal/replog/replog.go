package replog

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/wal"
)

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("replog: log closed")

// cacheLimit bounds the decoded-entry cache per group. Entries this far
// behind the newest cached position are evicted; compaction evicts eagerly.
const cacheLimit = 4096

// Log is one group's replicated log at one datacenter. All methods are safe
// for concurrent use. Construct with Open.
type Log struct {
	group string
	store *kvstore.Store

	// compactMu serializes compaction passes.
	compactMu sync.Mutex

	// ioMu orders bulk store mutations against watermark movement: the
	// apply goroutine's batch+meta write and snapshot installation.
	ioMu sync.Mutex
	// batch is drain's reusable write buffer (guarded by ioMu). The Value
	// maps inside are handed to the store (ApplyBatch takes ownership);
	// only the slice header is reused.
	batch []kvstore.BatchWrite

	// mu guards the fields below. Critical sections are short; the apply
	// goroutine does its store I/O outside mu.
	mu         sync.Mutex
	applied    int64               // contiguously applied watermark
	decidedMax int64               // highest position known decided locally
	compacted  int64               // compaction horizon
	pending    map[int64]wal.Entry // decided but not yet applied (pos > applied)
	cache      map[int64]wal.Entry // decoded entries (read-only, shared)
	cacheTop   int64               // highest cached position (eviction anchor)
	pins       map[int64]time.Time // read-pin position -> expiry (PinReads)
	applyErr   error               // sticky apply failure; surfaced by waiters
	waitCh     chan struct{}       // closed+replaced on every watermark advance
	notifyCh   chan struct{}       // wakes the apply goroutine (capacity 1)
	stopCh     chan struct{}
	stopOnce   sync.Once

	// Apply scheduling. A standalone Log (Open) runs a dedicated apply
	// goroutine; a Set-owned Log shares the Set's applyPool, with sched
	// marking whether the log is already queued on its shard's worker.
	pool  *applyPool
	shard uint32
	sched atomic.Bool

	// Epoch fencing state (DESIGN.md §11): the prevailing master epoch at
	// the applied watermark, maintained by drain as claim entries apply in
	// log order, durable in the meta row. renewedAt is the local wall-clock
	// time the lease was last renewed — by a claim entry for the prevailing
	// epoch or by any transaction entry stamped with it — and is volatile:
	// a restart resets it to the Open time, which only delays takeover.
	epoch     EpochState
	renewedAt time.Time
	voided    map[int64]bool // positions fenced at apply (entries that committed nothing)

	// Live-migration state (DESIGN.md §15), maintained by drain exactly like
	// the epoch state: mig is the derived view of every applied handoff
	// entry (durable in the meta row), and movedTxns records transactions
	// voided by the migration rules M1/M2 — pos -> txn ID -> destination
	// group ("" = inbound-unopened here) — so the pipeline can answer them
	// with the retryable moved/migrating verdicts instead of commits.
	mig       migState
	movedTxns map[int64]map[string]string
}

// EpochState is a group's prevailing master epoch: the highest epoch any
// applied claim entry has established, the datacenter holding it, and the
// log position of the establishing claim. The zero value means no master has
// ever claimed the group.
type EpochState struct {
	Epoch  int64
	Master string
	Pos    int64
}

// Open returns the Log for (store, group), rebuilding its in-memory state
// from the store's rows: the watermark and compaction horizon from the meta
// row, and any decided-but-unapplied entries (written durably before a
// restart) into the pending set, which the apply goroutine then drains.
func Open(store *kvstore.Store, group string) *Log {
	return open(store, group, nil)
}

// open builds the Log. With a nil pool the log runs its own apply goroutine;
// otherwise apply work is scheduled on the pool's shard worker for the group.
func open(store *kvstore.Store, group string, pool *applyPool) *Log {
	l := &Log{
		group:     group,
		store:     store,
		pool:      pool,
		shard:     GroupShard(group),
		pending:   make(map[int64]wal.Entry),
		cache:     make(map[int64]wal.Entry),
		pins:      make(map[int64]time.Time),
		voided:    make(map[int64]bool),
		movedTxns: make(map[int64]map[string]string),
		waitCh:    make(chan struct{}),
		notifyCh:  make(chan struct{}, 1),
		stopCh:    make(chan struct{}),
		renewedAt: time.Now(),
	}
	if v, _, err := store.Read(MetaKey(group), kvstore.Latest); err == nil {
		l.applied, _ = strconv.ParseInt(v["last"], 10, 64)
		l.compacted, _ = strconv.ParseInt(v["compacted"], 10, 64)
		l.epoch.Epoch, _ = strconv.ParseInt(v["epoch"], 10, 64)
		l.epoch.Pos, _ = strconv.ParseInt(v["epochpos"], 10, 64)
		l.epoch.Master = v["master"]
		l.mig.rebuild(group, decodeMigrations(v["migrations"]))
	}
	l.decidedMax = l.applied
	// Recover decided entries above the watermark into the pending set.
	prefix := LogPrefix(group)
	for _, key := range store.KeysWithPrefix(prefix) {
		pos, err := strconv.ParseInt(key[len(prefix):], 10, 64)
		if err != nil || pos <= l.applied {
			continue
		}
		raw, _, err := store.Read(key, kvstore.Latest)
		if err != nil {
			continue
		}
		if entry, err := wal.Decode([]byte(raw["entry"])); err == nil {
			l.pending[pos] = entry
			if pos > l.decidedMax {
				l.decidedMax = pos
			}
		}
	}
	// Drain recovered entries synchronously so a restarted replica surfaces
	// a fully advanced watermark before it serves its first request.
	if len(l.pending) > 0 {
		l.drain()
	}
	if l.pool == nil {
		go l.run()
	}
	return l
}

// Group returns the transaction group this log belongs to.
func (l *Log) Group() string { return l.group }

// Close stops the apply goroutine and fails pending and future waiters with
// ErrClosed. Durable state is untouched; Open rebuilds from it.
func (l *Log) Close() {
	l.stopOnce.Do(func() { close(l.stopCh) })
}

// Applied returns the contiguously-applied watermark: every log entry at or
// below it has had its writes applied to the data rows. 0 means empty.
func (l *Log) Applied() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.applied
}

// DecidedMax returns the highest position known decided locally: applied,
// pending behind a gap, or learned through an apply message — 0 means none.
// The master's pipelined submit path assigns fresh positions above it so a
// new entry is never placed below a decided one it has not absorbed
// (DESIGN.md §8, invariant W1).
func (l *Log) DecidedMax() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.decidedMax
}

// CompactedTo returns the compaction horizon: log entries strictly below it
// have been scavenged locally. 0 means never compacted.
func (l *Log) CompactedTo() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.compacted
}

// Epoch returns the prevailing master epoch state at the applied watermark:
// the highest epoch established by an applied claim entry. The zero value
// means the group has never had a fenced master.
func (l *Log) Epoch() EpochState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// LeaseState returns the prevailing epoch state together with the local
// wall-clock time the holder's lease was last observed renewed (a claim or
// renewal entry applying, or the master's own epoch-stamped traffic). The
// lease is a liveness mechanism only — safety comes from fencing — so the
// timestamp is deliberately local and volatile: a restarted replica counts
// from its Open time, which can only delay a takeover, never unfence one.
func (l *Log) LeaseState() (EpochState, time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch, l.renewedAt
}

// Voided reports whether the entry at pos was fenced when it applied: it was
// stamped with a superseded epoch (or was a losing claim) and committed
// nothing (DESIGN.md §11, invariant F2). Only meaningful for positions at or
// below the applied watermark; the record is bounded and positions far
// behind the watermark are eventually forgotten.
func (l *Log) Voided(pos int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.voided[pos]
}

// Append records the decided entry for pos: the entry bytes are validated,
// written durably to the log row (idempotently — duplicated apply messages
// and replays are harmless, a different value for a decided position is
// refused), and queued for the apply goroutine. It returns the contiguous
// decided horizon — the highest position h such that every position in
// (Applied(), h] is decided locally; the watermark will reach h without
// further appends. When pos is above a gap, h < pos and the caller must
// catch the gap up before waiting on pos.
func (l *Log) Append(pos int64, entryBytes []byte) (int64, error) {
	if pos < 1 {
		return 0, fmt.Errorf("replog: append at invalid position %d", pos)
	}
	entry, err := wal.Decode(entryBytes)
	if err != nil {
		return 0, fmt.Errorf("replog: entry %s/%d: %w", l.group, pos, err)
	}
	if err := l.store.WriteIdempotent(LogKey(l.group, pos), kvstore.Value{"entry": string(entryBytes)}, 0); err != nil {
		return 0, fmt.Errorf("replog: store entry %s/%d: %w", l.group, pos, err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.applyErr; err != nil {
		return 0, err
	}
	if pos > l.decidedMax {
		l.decidedMax = pos
	}
	if pos > l.applied {
		if _, ok := l.pending[pos]; !ok {
			l.pending[pos] = entry
		}
	}
	h := l.applied
	for {
		if _, ok := l.pending[h+1]; !ok {
			break
		}
		h++
	}
	l.notify()
	return h, nil
}

// WaitApplied blocks until the watermark reaches pos, ctx is done, or the
// log fails or closes. The caller is responsible for pos being reachable
// (decided locally or being caught up); use the horizon Append returns.
func (l *Log) WaitApplied(ctx context.Context, pos int64) error {
	for {
		l.mu.Lock()
		if l.applied >= pos {
			l.mu.Unlock()
			return nil
		}
		if err := l.applyErr; err != nil {
			l.mu.Unlock()
			return err
		}
		ch := l.waitCh
		l.mu.Unlock()
		select {
		case <-ch:
		case <-l.stopCh:
			return ErrClosed
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Has reports whether the decided entry at pos is known locally (applied,
// pending, or durable in the store), without decoding it.
func (l *Log) Has(pos int64) bool {
	l.mu.Lock()
	_, inPending := l.pending[pos]
	_, inCache := l.cache[pos]
	l.mu.Unlock()
	if inPending || inCache {
		return true
	}
	_, _, err := l.store.Read(LogKey(l.group, pos), kvstore.Latest)
	return err == nil
}

// Entry returns the decided entry at pos, if known locally. The returned
// entry may be shared with the cache and other callers: treat it as
// read-only (Clone before mutating). Serving from the cache avoids
// re-decoding entry bytes on catch-up, leader computation, and the master's
// promotion-conflict checks.
func (l *Log) Entry(pos int64) (wal.Entry, bool) {
	l.mu.Lock()
	if e, ok := l.pending[pos]; ok {
		l.mu.Unlock()
		return e, true
	}
	if e, ok := l.cache[pos]; ok {
		l.mu.Unlock()
		return e, true
	}
	l.mu.Unlock()
	raw, _, err := l.store.Read(LogKey(l.group, pos), kvstore.Latest)
	if err != nil {
		return wal.Entry{}, false
	}
	entry, err := wal.Decode([]byte(raw["entry"]))
	if err != nil {
		return wal.Entry{}, false
	}
	l.mu.Lock()
	l.cacheLocked(pos, entry)
	l.mu.Unlock()
	return entry, true
}

// EntryBytes returns the encoded decided entry at pos, for serving catch-up
// fetches.
func (l *Log) EntryBytes(pos int64) ([]byte, bool) {
	raw, _, err := l.store.Read(LogKey(l.group, pos), kvstore.Latest)
	if err != nil {
		return nil, false
	}
	return []byte(raw["entry"]), true
}

// Snapshot returns every decided log entry known locally, keyed by position.
// Entries are deep copies; intended for the history checker and tooling.
func (l *Log) Snapshot() map[int64]wal.Entry {
	out := make(map[int64]wal.Entry)
	prefix := LogPrefix(l.group)
	for _, key := range l.store.KeysWithPrefix(prefix) {
		pos, err := strconv.ParseInt(key[len(prefix):], 10, 64)
		if err != nil {
			continue
		}
		if entry, ok := l.Entry(pos); ok {
			out[pos] = entry.Clone()
		}
	}
	l.mu.Lock()
	for pos, entry := range l.pending {
		if _, ok := out[pos]; !ok {
			out[pos] = entry.Clone()
		}
	}
	l.mu.Unlock()
	return out
}

// ReadStable runs fn with compaction excluded, passing the applied
// watermark and the prevailing epoch state at that watermark (captured
// atomically — drain advances both under one critical section, so the pair
// is consistent). fn can read every data row at that horizon without a
// concurrent Compact scavenging the versions it is reading (snapshot
// building uses this; the watermark itself may still advance, which only
// adds newer versions).
func (l *Log) ReadStable(fn func(horizon int64, epoch EpochState) error) error {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	l.mu.Lock()
	horizon, epoch := l.applied, l.epoch
	l.mu.Unlock()
	return fn(horizon, epoch)
}

// Compact scavenges log rows strictly below horizon and records the new
// compaction horizon in the meta row. The horizon is clamped to the applied
// watermark. scavenge, when non-nil, is called with the half-open position
// range [from, to) being compacted so the caller can drop its own
// per-position rows (Paxos acceptor state, leader claims) and GC data
// versions below to. Compact returns the effective horizon.
//
// Compact holds ioMu for its whole run so it cannot interleave with a
// snapshot installation: without that, an install could advance the horizon
// past ours between our clamp and our meta write, and we would regress the
// durable horizon below positions whose rows are already scavenged.
func (l *Log) Compact(horizon int64, scavenge func(from, to int64)) (int64, error) {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	l.ioMu.Lock()
	defer l.ioMu.Unlock()

	l.mu.Lock()
	if horizon > l.applied {
		horizon = l.applied
	}
	// Unexpired read pins hold the horizon at or below their position: a GC
	// at keepFrom == pin keeps the version visible at the pin, so clamping
	// to the pin itself (not below it) is exactly tight (see PinReads).
	now := time.Now()
	for pos, exp := range l.pins {
		if exp.Before(now) {
			delete(l.pins, pos)
			continue
		}
		if horizon > pos {
			horizon = pos
		}
	}
	prev := l.compacted
	l.mu.Unlock()
	if horizon <= prev {
		return prev, nil
	}
	if scavenge != nil {
		scavenge(prev+1, horizon)
	}
	for pos := prev + 1; pos < horizon; pos++ {
		l.store.Delete(LogKey(l.group, pos))
	}
	err := l.store.Update(MetaKey(l.group), func(cur kvstore.Value) (kvstore.Value, error) {
		if cur == nil {
			cur = kvstore.Value{}
		}
		cur["compacted"] = strconv.FormatInt(horizon, 10)
		return cur, nil
	})
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	if horizon > l.compacted {
		l.compacted = horizon
	}
	for pos := range l.cache {
		if pos < horizon {
			delete(l.cache, pos)
		}
	}
	for pos := range l.voided {
		if pos < horizon {
			delete(l.voided, pos)
		}
	}
	l.mu.Unlock()
	return horizon, nil
}

// InstallSnapshot jumps the watermark and compaction horizon to a peer
// snapshot's, and adopts the snapshot's prevailing epoch state — without it
// a replica restored from a snapshot whose establishing claim entry lies
// below the horizon would never learn the epoch and would mis-apply fenced
// entries above it. The snapshot's migration state is adopted for the same
// reason: a replica restored past the handoff positions must still fence
// departed and inbound ranges (DESIGN.md §15). The caller must have landed
// the snapshot's data rows first (kvstore.ApplyBatch); positions above the
// horizon continue through normal catch-up. A snapshot at or below the
// current watermark is a no-op.
func (l *Log) InstallSnapshot(horizon int64, epoch EpochState, mig MigrationState) error {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	l.mu.Lock()
	if l.applied >= horizon {
		l.mu.Unlock()
		return nil
	}
	if epoch.Epoch < l.epoch.Epoch {
		epoch = l.epoch
	}
	l.mu.Unlock()
	err := l.store.Update(MetaKey(l.group), func(cur kvstore.Value) (kvstore.Value, error) {
		if cur == nil {
			cur = kvstore.Value{}
		}
		cur["last"] = strconv.FormatInt(horizon, 10)
		cur["compacted"] = strconv.FormatInt(horizon, 10)
		if epoch.Epoch > 0 {
			cur["epoch"] = strconv.FormatInt(epoch.Epoch, 10)
			cur["epochpos"] = strconv.FormatInt(epoch.Pos, 10)
			cur["master"] = epoch.Master
		}
		if len(mig.Records) > 0 {
			cur["migrations"] = encodeMigrations(mig.Records)
		}
		return cur, nil
	})
	if err != nil {
		return err
	}
	l.mu.Lock()
	if l.applied < horizon {
		l.applied = horizon
	}
	if l.decidedMax < horizon {
		l.decidedMax = horizon
	}
	if l.compacted < horizon {
		l.compacted = horizon
	}
	if epoch.Epoch > l.epoch.Epoch {
		l.epoch = epoch
		l.renewedAt = time.Now()
	}
	if len(mig.Records) > len(l.mig.records) {
		// The snapshot's record list extends ours (both are prefixes of the
		// same log's handoff sequence); replay the longer one.
		l.mig.rebuild(l.group, mig.Records)
	}
	for pos := range l.pending {
		if pos <= l.applied {
			delete(l.pending, pos)
		}
	}
	l.broadcastLocked()
	l.mu.Unlock()
	l.notify()
	return nil
}

// --- apply goroutine ------------------------------------------------------

func (l *Log) notify() {
	if l.pool != nil {
		l.pool.schedule(l)
		return
	}
	select {
	case l.notifyCh <- struct{}{}:
	default:
	}
}

// stopped reports whether Close has been called.
func (l *Log) stopped() bool {
	select {
	case <-l.stopCh:
		return true
	default:
		return false
	}
}

// broadcastLocked wakes every WaitApplied waiter. Caller holds l.mu.
func (l *Log) broadcastLocked() {
	close(l.waitCh)
	l.waitCh = make(chan struct{})
}

// cacheLocked inserts a decoded entry, keeping the cache bounded: the
// position trailing the newest by cacheLimit is dropped eagerly, and when
// scattered reads (e.g. a full log scan) still push the size over the
// limit, arbitrary entries are evicted — hot positions simply re-enter on
// their next read. Caller holds l.mu.
func (l *Log) cacheLocked(pos int64, entry wal.Entry) {
	if pos > l.cacheTop {
		l.cacheTop = pos
	}
	delete(l.cache, l.cacheTop-cacheLimit)
	if len(l.cache) >= cacheLimit {
		for p := range l.cache {
			delete(l.cache, p)
			if len(l.cache) < cacheLimit {
				break
			}
		}
	}
	l.cache[pos] = entry
}

func (l *Log) run() {
	for {
		select {
		case <-l.stopCh:
			return
		case <-l.notifyCh:
			l.drain()
		}
	}
}

// drain applies every run of contiguous pending positions above the
// watermark: one kvstore.ApplyBatch for all their writes and one meta-row
// update per run, then a single watermark advance that wakes every waiter.
// An apply failure (e.g. store closed during shutdown) is sticky and
// surfaces through WaitApplied and Append.
//
// drain is also where epoch fencing happens (DESIGN.md §11). Entries are
// processed in log order, so the prevailing epoch at each position is a
// deterministic function of the log prefix, identical at every replica:
// a claim entry above the prevailing epoch adopts the new (epoch, master);
// a claim at or below it is void (it lost the claim race logically even
// though it won its Paxos position); and a transaction entry stamped with a
// superseded epoch is void — none of its writes land, anywhere (invariant
// F2). Claim renewals and the master's own stamped traffic both refresh the
// locally observed lease.
func (l *Log) drain() {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	for {
		l.mu.Lock()
		if l.applyErr != nil {
			l.mu.Unlock()
			return
		}
		start := l.applied
		pos := start
		var entries []wal.Entry
		for {
			e, ok := l.pending[pos+1]
			if !ok {
				break
			}
			pos++
			entries = append(entries, e)
		}
		epoch := l.epoch
		mig := l.mig // shallow view; deep-copied before any mutation
		l.mu.Unlock()
		if pos == start {
			return
		}

		renewed := false
		migDirty := false
		var newVoid []int64
		var newMoved map[int64]map[string]string
		writes := l.batch[:0]
		for i, e := range entries {
			p := start + 1 + int64(i)
			if e.IsClaim() {
				switch {
				case e.Epoch > epoch.Epoch:
					epoch = EpochState{Epoch: e.Epoch, Master: e.Master, Pos: p}
					renewed = true
				case e.Epoch == epoch.Epoch && e.Master == epoch.Master:
					renewed = true // lease renewal by the holder
				default:
					newVoid = append(newVoid, p) // superseded claim: void
				}
				continue
			}
			if e.Epoch != 0 && e.Epoch < epoch.Epoch {
				newVoid = append(newVoid, p) // fenced (F2): applies nothing
				continue
			}
			if e.Epoch != 0 && e.Epoch == epoch.Epoch {
				renewed = true // the master's own traffic renews its lease
			}
			if e.IsHandoff() {
				// A handoff entry that passed the epoch fence changes the
				// group's migration state for every later position
				// (DESIGN.md §15). Mutate a private copy: readers keep
				// reading l.mig under mu until this batch commits.
				if !migDirty {
					mig = mig.deepCopy()
					migDirty = true
				}
				h := e.Handoff
				mig.apply(l.group, HandoffRecord{
					Phase: uint8(h.Phase), From: h.From, To: h.To,
					Groups:  append([]string(nil), h.Groups...),
					Version: h.Version, Pos: p,
				})
				continue
			}
			// Transaction entry: apply per transaction so the migration
			// rules M1/M2 can void individual transactions (a combined
			// entry may mix moved and unmoved write sets). Later
			// transactions still overwrite earlier ones within the entry.
			entryWrites := make(map[string]string, 4)
			for _, t := range e.Txns {
				if to, voided := mig.voidsTxn(t); voided {
					if newMoved == nil {
						newMoved = make(map[int64]map[string]string)
					}
					if newMoved[p] == nil {
						newMoved[p] = make(map[string]string)
					}
					newMoved[p][t.ID] = to
					continue
				}
				for k, v := range t.Writes {
					entryWrites[k] = v
				}
			}
			for k, v := range entryWrites {
				writes = append(writes, kvstore.BatchWrite{
					Key: DataKey(l.group, k), Value: kvstore.PackAttr("v", v), TS: p,
				})
			}
		}
		l.batch = writes
		err := l.store.ApplyBatch(writes)
		if err == nil {
			err = l.store.Update(MetaKey(l.group), func(cur kvstore.Value) (kvstore.Value, error) {
				if cur == nil {
					cur = kvstore.Value{}
				}
				cur["last"] = strconv.FormatInt(pos, 10)
				if epoch.Epoch > 0 {
					cur["epoch"] = strconv.FormatInt(epoch.Epoch, 10)
					cur["epochpos"] = strconv.FormatInt(epoch.Pos, 10)
					cur["master"] = epoch.Master
				}
				if migDirty {
					cur["migrations"] = encodeMigrations(mig.records)
				}
				return cur, nil
			})
		}

		l.mu.Lock()
		if err != nil {
			l.applyErr = fmt.Errorf("replog: apply %s through %d: %w", l.group, pos, err)
			l.broadcastLocked()
			l.mu.Unlock()
			return
		}
		for p := start + 1; p <= pos; p++ {
			if e, ok := l.pending[p]; ok {
				l.cacheLocked(p, e)
				delete(l.pending, p)
			}
		}
		for _, p := range newVoid {
			l.voided[p] = true
		}
		if len(l.voided) > cacheLimit {
			for p := range l.voided {
				if p <= pos-cacheLimit {
					delete(l.voided, p)
				}
			}
		}
		for p, m := range newMoved {
			l.movedTxns[p] = m
		}
		if len(l.movedTxns) > cacheLimit {
			for p := range l.movedTxns {
				if p <= pos-cacheLimit {
					delete(l.movedTxns, p)
				}
			}
		}
		if migDirty {
			l.mig = mig
		}
		if epoch.Epoch > l.epoch.Epoch {
			l.epoch = epoch
		}
		if renewed {
			l.renewedAt = time.Now()
		}
		if pos > l.applied {
			l.applied = pos
		}
		l.broadcastLocked()
		l.mu.Unlock()
	}
}

// Set owns the Logs of every group served over one store; the Transaction
// Service holds one Set in place of the seed's per-group mutex maps. A Set's
// logs share one applyPool with GOMAXPROCS workers keyed by group, instead
// of one apply goroutine each (DESIGN.md §13).
type Set struct {
	store *kvstore.Store
	pool  *applyPool

	mu     sync.Mutex
	logs   map[string]*Log
	closed bool
}

// NewSet returns an empty Set over store. Logs open lazily on first Get.
func NewSet(store *kvstore.Store) *Set {
	return &Set{
		store: store,
		pool:  newApplyPool(runtime.GOMAXPROCS(0)),
		logs:  make(map[string]*Log),
	}
}

// Get returns group's Log, opening it on first use.
func (s *Set) Get(group string) *Log {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.logs[group]
	if l == nil {
		l = open(s.store, group, s.pool)
		if s.closed {
			l.Close()
		}
		s.logs[group] = l
	}
	return l
}

// Groups returns the names of every group with an open Log, sorted. This is
// the replica's group-discovery surface: a group exists here once any
// traffic (or an explicit EnsureGroups/open) has touched it.
func (s *Set) Groups() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.logs))
	for g := range s.logs {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// Close stops every open Log and then the shared apply pool.
func (s *Set) Close() {
	s.mu.Lock()
	s.closed = true
	for _, l := range s.logs {
		l.Close()
	}
	s.mu.Unlock()
	s.pool.close()
}
