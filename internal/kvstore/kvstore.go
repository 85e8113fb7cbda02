package kvstore

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Common errors returned by Store operations.
var (
	// ErrNotFound is returned by Read when no version of the row exists at
	// or before the requested timestamp.
	ErrNotFound = errors.New("kvstore: key not found")
	// ErrStaleWrite is returned by Write when a version with a timestamp
	// greater than or equal to the requested one already exists.
	ErrStaleWrite = errors.New("kvstore: newer version exists")
	// ErrCheckFailed is returned by CheckAndWrite when the test attribute of
	// the latest version does not match the expected value.
	ErrCheckFailed = errors.New("kvstore: check failed")
	// ErrClosed is returned by all operations after Close.
	ErrClosed = errors.New("kvstore: store closed")
)

// Value is one version's contents: a set of named attributes (columns).
// Values are copied on write and on read, so callers may retain and mutate
// the maps they pass in or receive without affecting the store.
type Value map[string]string

// Clone returns a deep copy of v. A nil Value clones to an empty, non-nil map
// so the result is always safe to assign into.
func (v Value) Clone() Value {
	out := make(Value, len(v))
	for k, val := range v {
		out[k] = val
	}
	return out
}

// Equal reports whether v and o contain exactly the same attributes.
func (v Value) Equal(o Value) bool {
	if len(v) != len(o) {
		return false
	}
	for k, val := range v {
		if ov, ok := o[k]; !ok || ov != val {
			return false
		}
	}
	return true
}

// Version is a single timestamped version of a row, in decoded form. The
// store keeps versions packed (see version); Version is the shape gob
// snapshots carry (persist.go).
type Version struct {
	Timestamp int64
	Value     Value
}

// version is one stored version: its timestamp and its contents packed in
// the WAL's value layout (packed.go), one immutable string per version.
type version struct {
	ts  int64
	val Packed
}

// row holds all versions of one key, sorted by ascending timestamp. Rows
// written by CheckAndWrite or Update keep only their latest version.
type row struct {
	mu       sync.Mutex
	versions []version
	// gone marks a row Delete removed from its shard map. A writer that
	// pinned the row pointer before the delete must not mutate the orphaned
	// object (the mutation would be invisible to readers yet still reach the
	// WAL); lockRow/lockPinned re-resolve through the shard map instead.
	// Written and read under mu.
	gone bool
}

// latest returns the newest version, or nil if none exist.
// Caller must hold row.mu.
func (r *row) latest() *version {
	if len(r.versions) == 0 {
		return nil
	}
	return &r.versions[len(r.versions)-1]
}

// at returns the newest version with timestamp <= ts, or nil.
// Caller must hold row.mu.
func (r *row) at(ts int64) *version {
	// Binary search for the first version with timestamp > ts.
	i := sort.Search(len(r.versions), func(i int) bool {
		return r.versions[i].ts > ts
	})
	if i == 0 {
		return nil
	}
	return &r.versions[i-1]
}

// visible returns the version a read at ts resolves to (ts < 0: the
// latest), or nil. Caller must hold row.mu.
func (r *row) visible(ts int64) *version {
	if ts < 0 {
		return r.latest()
	}
	return r.at(ts)
}

const numShards = 32

type shard struct {
	mu   sync.RWMutex
	rows map[string]*row

	// Ordered key index (scan.go): base and the small delta of recent
	// inserts are both sorted and may hold ghosts, dead counts deletes
	// since the last fold. All three are read and written under mu.
	base  []string
	delta []string
	dead  int
}

// Store is a multi-version key-value store whose working image lives in
// memory. The zero value is not usable; construct with New. All methods are
// safe for concurrent use. With no engine attached (the default) the store
// is purely in-memory; AttachEngine wires a durability backend that logs
// every mutation before it is acknowledged (engine.go, DESIGN.md §14).
type Store struct {
	shards [numShards]*shard

	// engine is the durability backend; nil means in-memory only. Written
	// once by AttachEngine before the store is shared, read without
	// synchronization on every mutation.
	engine Engine

	mu        sync.Mutex
	closed    bool
	engineErr error // sticky engine failure: mutations fail-stop

	// scanExamined counts index entries ScanPrefix's gathers returned; see
	// ScanExamined.
	scanExamined atomic.Int64
}

// PosKey builds the per-position row name "<prefix><group>/<pos>" shared by
// the log, acceptor, and claim layouts (see DESIGN.md §4). It runs on every
// commit and apply, so it avoids fmt.Sprintf: the integer renders through
// strconv.AppendInt into a stack buffer and the result is one allocation.
// The buffer covers every realistic group name; longer ones spill to the
// heap but stay correct.
func PosKey(prefix, group string, pos int64) string {
	var buf [64]byte
	b := append(buf[:0], prefix...)
	b = append(b, group...)
	b = append(b, '/')
	b = strconv.AppendInt(b, pos, 10)
	return string(b)
}

// New returns an empty Store.
func New() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i] = &shard{rows: make(map[string]*row)}
	}
	return s
}

func shardFor(key string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(key))
	return h.Sum32() % numShards
}

// getRow returns the row for key, creating it when create is true.
func (s *Store) getRow(key string, create bool) *row {
	sh := s.shards[shardFor(key)]
	sh.mu.RLock()
	r := sh.rows[key]
	sh.mu.RUnlock()
	if r != nil || !create {
		return r
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if r = sh.rows[key]; r == nil {
		r = &row{}
		sh.rows[key] = r
		sh.noteInsertLocked(key)
	}
	return r
}

// lockRow returns key's row with its lock held, creating the row when
// absent and retrying when a concurrent Delete marked the locked row gone
// (the recreated row starts empty, exactly as the deleted one ended).
// Every write-family operation goes through this so no mutation ever lands
// on an orphaned row object.
func (s *Store) lockRow(key string) *row {
	for {
		r := s.getRow(key, true)
		r.mu.Lock()
		if !r.gone {
			return r
		}
		r.mu.Unlock()
	}
}

// lockPinned locks a row pinned earlier (ApplyBatch pins all rows of a
// batch up front with one shard-lock round per shard), re-resolving it
// through the shard map when a concurrent Delete scavenged it between the
// pin and the lock.
func (s *Store) lockPinned(r *row, key string) *row {
	r.mu.Lock()
	for r.gone {
		r.mu.Unlock()
		r = s.getRow(key, true)
		r.mu.Lock()
	}
	return r
}

func (s *Store) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// mutGate is the entry check for every mutating operation: the store must be
// open and the durability engine (when attached) must not have fail-stopped.
// Reads deliberately keep working after an engine failure — the in-memory
// image is intact and peers may still catch up from it — but no new mutation
// may acknowledge once durability is gone.
func (s *Store) mutGate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.engineErr != nil {
		return &EngineError{Err: s.engineErr}
	}
	return nil
}

// Read returns the most recent version of key with a timestamp less than or
// equal to ts. Pass Latest (or any negative ts) to read the most recent
// version regardless of timestamp. The returned Value is a copy.
func (s *Store) Read(key string, ts int64) (Value, int64, error) {
	if s.isClosed() {
		return nil, 0, ErrClosed
	}
	r := s.getRow(key, false)
	if r == nil {
		return nil, 0, ErrNotFound
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.visible(ts)
	if v == nil {
		return nil, 0, ErrNotFound
	}
	return v.val.Value(), v.ts, nil
}

// Latest may be passed as the timestamp to Read to fetch the most recent
// version of a row.
const Latest int64 = -1

// MultiResult is one key's outcome in a ReadMulti call.
type MultiResult struct {
	// Value is a copy of the version's contents; nil when !Found.
	Value Value
	// TS is the found version's timestamp.
	TS int64
	// Found reports whether a version existed at or before the requested
	// timestamp.
	Found bool
}

// ReadMulti reads many keys at one timestamp with one shard-lock acquisition
// per touched shard (instead of the per-key shard lookup a loop of Read
// calls pays) and returns one result per key, in key order. Pass Latest (or
// any negative ts) for most-recent-version reads. Per-key semantics match
// Read exactly; a missing key is reported as !Found rather than an error.
//
// Like Read, cross-row atomicity is not provided by the store: the
// transaction tier serves multi-key reads at an applied-watermark position,
// which only advances after a batch fully lands (see internal/replog), so a
// ReadMulti at position <= watermark observes one consistent snapshot.
func (s *Store) ReadMulti(keys []string, ts int64) ([]MultiResult, error) {
	if s.isClosed() {
		return nil, ErrClosed
	}
	out := make([]MultiResult, len(keys))
	if len(keys) == 0 {
		return out, nil
	}
	// Pin every row with one shard-lock round per touched shard.
	var byShard [numShards][]int
	for i, k := range keys {
		si := shardFor(k)
		byShard[si] = append(byShard[si], i)
	}
	rows := make([]*row, len(keys))
	for si := range byShard {
		idxs := byShard[si]
		if len(idxs) == 0 {
			continue
		}
		sh := s.shards[si]
		sh.mu.RLock()
		for _, i := range idxs {
			rows[i] = sh.rows[keys[i]]
		}
		sh.mu.RUnlock()
	}
	for i, r := range rows {
		if r == nil {
			continue
		}
		r.mu.Lock()
		if v := r.visible(ts); v != nil {
			out[i] = MultiResult{Value: v.val.Value(), TS: v.ts, Found: true}
		}
		r.mu.Unlock()
	}
	return out, nil
}

// Write creates a new version of key with the given timestamp. If a version
// with a timestamp >= ts already exists, ErrStaleWrite is returned, matching
// the paper's write(key, value, timestamp) contract. Pass a negative ts to
// have the store assign a timestamp one greater than the current maximum.
// Writing the same timestamp twice is rejected (timestamps are log positions
// and each position is written once).
func (s *Store) Write(key string, value Value, ts int64) (int64, error) {
	if err := s.mutGate(); err != nil {
		return 0, err
	}
	stored := Pack(value)
	r := s.lockRow(key)
	last := r.latest()
	if ts < 0 {
		ts = 0
		if last != nil {
			ts = last.ts + 1
		}
	} else if last != nil && last.ts >= ts {
		have := last.ts
		r.mu.Unlock()
		return 0, fmt.Errorf("%w: have ts=%d, write ts=%d key=%q",
			ErrStaleWrite, have, ts, key)
	}
	r.versions = append(r.versions, version{ts: ts, val: stored})
	var seq uint64
	logged := false
	if s.engine != nil {
		sq, err := s.appendMut(Mutation{Op: OpWrite, Key: key, TS: ts, Value: stored})
		if err != nil {
			r.mu.Unlock()
			return 0, err
		}
		seq, logged = sq, true
	}
	r.mu.Unlock()
	if logged {
		if err := s.syncMut(seq); err != nil {
			return 0, err
		}
	}
	return ts, nil
}

// checkIdempotent reports whether applying (ts, value) idempotently would
// conflict: a version already exists at ts with a different value.
// Caller must hold r.mu.
func (r *row) checkIdempotent(ts int64, value Packed) error {
	last := r.latest()
	if last == nil || last.ts < ts {
		return nil // appends past the tail never conflict
	}
	if v := r.at(ts); v != nil && v.ts == ts && v.val != value {
		return fmt.Errorf("%w: conflicting rewrite of ts=%d", ErrStaleWrite, ts)
	}
	return nil
}

// applyIdempotent inserts (ts, value) keeping versions ordered by timestamp.
// Re-writing an existing timestamp with an identical value is a no-op; a
// different value is a conflict. The changed result reports whether the row
// actually mutated — duplicate deliveries return false, which the
// engine-logging callers use to keep replayed apply messages out of the
// write-ahead log. Caller must hold r.mu.
func (r *row) applyIdempotent(ts int64, value Packed) (changed bool, err error) {
	last := r.latest()
	if last == nil || last.ts < ts {
		r.versions = append(r.versions, version{ts: ts, val: value})
		return true, nil
	}
	if v := r.at(ts); v != nil && v.ts == ts {
		if v.val == value {
			return false, nil
		}
		return false, fmt.Errorf("%w: conflicting rewrite of ts=%d", ErrStaleWrite, ts)
	}
	// A newer version exists but this exact timestamp was never written:
	// insert in order to keep historical reads correct.
	i := sort.Search(len(r.versions), func(i int) bool {
		return r.versions[i].ts > ts
	})
	r.versions = slices.Insert(r.versions, i, version{ts: ts, val: value})
	return true, nil
}

// WriteIdempotent is Write except that re-writing an existing timestamp with
// an identical value succeeds silently. The WAL apply path uses this so that
// replayed log entries (after recovery or duplicated apply messages) are
// harmless.
func (s *Store) WriteIdempotent(key string, value Value, ts int64) error {
	if err := s.mutGate(); err != nil {
		return err
	}
	if ts < 0 {
		return fmt.Errorf("kvstore: WriteIdempotent requires explicit timestamp")
	}
	stored := Pack(value)
	r := s.lockRow(key)
	changed, err := r.applyIdempotent(ts, stored)
	if err != nil {
		r.mu.Unlock()
		return fmt.Errorf("%w key=%q", err, key)
	}
	// Duplicate deliveries (changed == false) left the image untouched, so
	// they are already represented in the log and are not re-logged.
	var seq uint64
	logged := false
	if changed && s.engine != nil {
		sq, aerr := s.appendMut(Mutation{Op: OpWrite, Key: key, TS: ts, Value: stored})
		if aerr != nil {
			r.mu.Unlock()
			return aerr
		}
		seq, logged = sq, true
	}
	r.mu.Unlock()
	if logged {
		if err := s.syncMut(seq); err != nil {
			return err
		}
	}
	return nil
}

// BatchWrite is one idempotent, explicitly-timestamped write in an
// ApplyBatch call. Value arrives already packed (Pack, PackAttr): the apply
// path builds each one directly, with no map in between.
type BatchWrite struct {
	Key   string
	Value Packed
	TS    int64
}

// ApplyBatch applies a batch of idempotent versioned writes (WriteIdempotent
// semantics per element) with one shard-lock acquisition per touched shard,
// instead of the per-key shard lookup that a loop of Write calls pays. The
// replicated-log apply path (internal/replog) uses it to land all writes of
// a batch of contiguous decided log entries in one pass.
//
// Every write is validated before any row is mutated, so a batch that
// conflicts with the existing state applies nothing. Under concurrent
// non-identical writers a batch may still fail partway (applied elements are
// idempotent, so retrying the same batch is harmless); cross-row visibility
// is never atomic — readers may observe a prefix of the batch. The log layer
// gates visibility through its applied watermark instead, which only
// advances after ApplyBatch returns (see internal/replog and DESIGN.md §4).
func (s *Store) ApplyBatch(writes []BatchWrite) error {
	if err := s.mutGate(); err != nil {
		return err
	}
	if len(writes) == 0 {
		return nil
	}
	var byShard [numShards][]int
	for i := range writes {
		if writes[i].TS < 0 {
			return fmt.Errorf("kvstore: ApplyBatch requires explicit timestamps (key %q)", writes[i].Key)
		}
		si := shardFor(writes[i].Key)
		byShard[si] = append(byShard[si], i)
	}
	// Pin (and create) every row up front: one shard-lock acquisition per
	// touched shard for the whole batch.
	rows := make([]*row, len(writes))
	for si := range byShard {
		idxs := byShard[si]
		if len(idxs) == 0 {
			continue
		}
		sh := s.shards[si]
		sh.mu.Lock()
		for _, i := range idxs {
			r := sh.rows[writes[i].Key]
			if r == nil {
				r = &row{}
				sh.rows[writes[i].Key] = r
				sh.noteInsertLocked(writes[i].Key)
			}
			rows[i] = r
		}
		sh.mu.Unlock()
	}
	// Validate everything first so a conflicting batch mutates nothing.
	for i := range writes {
		r := s.lockPinned(rows[i], writes[i].Key)
		rows[i] = r
		err := r.checkIdempotent(writes[i].TS, writes[i].Value)
		r.mu.Unlock()
		if err != nil {
			return fmt.Errorf("%w key=%q", err, writes[i].Key)
		}
	}
	// Each element's WAL record is appended under its row's lock (Append is
	// queue-only, no I/O) so the log orders it against racing mutations of
	// the same row, and one Sync at the end covers the whole batch — the
	// group-commit fsync still absorbs every write the batch carried.
	// Replayed batches (nothing changed) are already in the log and skip the
	// engine; sequence numbers are monotone, so the last append's seq covers
	// all of them.
	var seq uint64
	logged := false
	for i := range writes {
		r := s.lockPinned(rows[i], writes[i].Key)
		rows[i] = r
		changed, err := r.applyIdempotent(writes[i].TS, writes[i].Value)
		if err != nil {
			r.mu.Unlock()
			return fmt.Errorf("%w key=%q", err, writes[i].Key)
		}
		if changed && s.engine != nil {
			sq, aerr := s.appendMut(Mutation{
				Op: OpWrite, Key: writes[i].Key, TS: writes[i].TS, Value: writes[i].Value,
			})
			if aerr != nil {
				r.mu.Unlock()
				return aerr
			}
			seq, logged = sq, true
		}
		r.mu.Unlock()
	}
	if logged {
		if err := s.syncMut(seq); err != nil {
			return err
		}
	}
	return nil
}

// CheckAndWrite atomically compares attribute testAttr of the latest version
// of key against testValue and, when equal, writes value as a new latest
// version (with a store-assigned timestamp). If the row has no versions, the
// test passes only when testValue equals the empty string, mirroring a
// missing attribute. Returns ErrCheckFailed when the test fails.
//
// This is the operation Algorithm 1 of the paper relies on to make Paxos
// acceptor state transitions atomic. The rows it writes (acceptor state,
// leader claims) are only ever read at Latest, so the new version replaces
// the old one instead of extending a history nobody reads.
func (s *Store) CheckAndWrite(key, testAttr, testValue string, value Value) error {
	if err := s.mutGate(); err != nil {
		return err
	}
	stored := Pack(value)
	r := s.lockRow(key)
	cur := ""
	if last := r.latest(); last != nil {
		cur = last.val.Get(testAttr)
	}
	if cur != testValue {
		r.mu.Unlock()
		return fmt.Errorf("%w: attr %q is %q, want %q", ErrCheckFailed, testAttr, cur, testValue)
	}
	return s.replaceLatest(r, key, stored)
}

// Update atomically reads the latest version of key and replaces it with the
// value returned by fn. fn receives a copy of the latest value (nil if the
// row is empty) and returns the replacement value, or an error to abort.
// Update exists for maintenance paths (the replog meta row, tooling); the
// Paxos protocol itself uses only Read/Write/CheckAndWrite per the paper.
// Like CheckAndWrite, it keeps only the row's latest version.
func (s *Store) Update(key string, fn func(Value) (Value, error)) error {
	if err := s.mutGate(); err != nil {
		return err
	}
	r := s.lockRow(key)
	var cur Value
	if last := r.latest(); last != nil {
		cur = last.val.Value()
	}
	next, err := fn(cur)
	if err != nil {
		r.mu.Unlock()
		return err
	}
	return s.replaceLatest(r, key, Pack(next))
}

// replaceLatest makes val the only version of the locked row r, one
// timestamp past its previous latest, unlocks r, and logs the change. The
// log carries the write and, when an older version existed, an OpGC at the
// new timestamp in the same append, so replay rebuilds the single-version
// row exactly. Caller must hold r.mu; replaceLatest releases it.
func (s *Store) replaceLatest(r *row, key string, val Packed) error {
	ts := int64(0)
	if last := r.latest(); last != nil {
		ts = last.ts + 1
	}
	hadOld := len(r.versions) > 0
	r.versions = append(r.versions[:0], version{ts: ts, val: val})
	if s.engine == nil {
		r.mu.Unlock()
		return nil
	}
	var seq uint64
	var err error
	if hadOld {
		seq, err = s.appendMut(Mutation{Op: OpWrite, Key: key, TS: ts, Value: val}, Mutation{Op: OpGC, Key: key, TS: ts})
	} else {
		seq, err = s.appendMut(Mutation{Op: OpWrite, Key: key, TS: ts, Value: val})
	}
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return s.syncMut(seq)
}

// Versions returns the number of stored versions for key.
func (s *Store) Versions(key string) int {
	r := s.getRow(key, false)
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.versions)
}

// GC discards all versions of key strictly older than the newest version
// whose timestamp is <= keepFrom. The version visible at keepFrom (and all
// newer) survive, so reads at timestamps >= keepFrom are unaffected.
// It returns the number of versions discarded.
func (s *Store) GC(key string, keepFrom int64) int {
	r := s.getRow(key, false)
	if r == nil {
		return 0
	}
	r.mu.Lock()
	if r.gone {
		r.mu.Unlock()
		return 0
	}
	dropped := r.gc(keepFrom)
	// A lost GC record only costs disk space after a crash (the discarded
	// versions reappear), never correctness, so engine failures surface via
	// the sticky fail-stop flag rather than a return value here. Appended
	// under the row lock so replay scavenges in apply order.
	var seq uint64
	logged := false
	if dropped > 0 && s.engine != nil {
		if sq, err := s.appendMut(Mutation{Op: OpGC, Key: key, TS: keepFrom}); err == nil {
			seq, logged = sq, true
		}
	}
	r.mu.Unlock()
	if logged {
		_ = s.syncMut(seq)
	}
	return dropped
}

// gcRow is GC's in-memory half, used by the recovery replay path
// (ApplyMutation), which must not re-log the mutation.
func (s *Store) gcRow(key string, keepFrom int64) int {
	r := s.getRow(key, false)
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gc(keepFrom)
}

// gc discards versions strictly older than the newest one at or below
// keepFrom. Caller must hold r.mu.
func (r *row) gc(keepFrom int64) int {
	i := sort.Search(len(r.versions), func(i int) bool {
		return r.versions[i].ts > keepFrom
	})
	// Keep the version at keepFrom itself (index i-1) so reads at keepFrom
	// still resolve.
	cut := i - 1
	if cut <= 0 {
		return 0
	}
	dropped := cut
	r.versions = append([]version(nil), r.versions[cut:]...)
	return dropped
}

// Delete removes a row and all its versions. Used by log compaction to
// scavenge decided Paxos instance state and old log entries. Like GC, a
// lost delete record costs space after a crash, not correctness, so engine
// failures are surfaced by the sticky fail-stop flag, not here.
//
// The delete is applied and logged while holding both the shard lock and
// the row lock: the gone mark makes a racing writer that pinned the row
// re-resolve (lockRow) instead of mutating the orphaned object, and the
// under-lock Append pins the WAL order of the delete against that row's
// other mutations — without it, a Delete racing a Write could be logged in
// the opposite order of application, and recovery replay would resurrect
// the deleted row or drop the acknowledged write.
func (s *Store) Delete(key string) {
	sh := s.shards[shardFor(key)]
	sh.mu.Lock()
	r := sh.rows[key]
	if r == nil {
		sh.mu.Unlock()
		return
	}
	r.mu.Lock()
	r.gone = true
	delete(sh.rows, key)
	sh.noteDeleteLocked()
	var seq uint64
	logged := false
	if s.engine != nil {
		if sq, err := s.appendMut(Mutation{Op: OpDelete, Key: key}); err == nil {
			seq, logged = sq, true
		}
	}
	r.mu.Unlock()
	sh.mu.Unlock()
	if logged {
		_ = s.syncMut(seq)
	}
}

// KeysWithPrefix returns all keys starting with prefix, sorted.
func (s *Store) KeysWithPrefix(prefix string) []string {
	var keys []string
	for _, sh := range s.shards {
		sh.mu.RLock()
		for k, r := range sh.rows {
			if !strings.HasPrefix(k, prefix) {
				continue
			}
			r.mu.Lock()
			n := len(r.versions)
			r.mu.Unlock()
			if n > 0 {
				keys = append(keys, k)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(keys)
	return keys
}

// Keys returns all keys with at least one version, in unspecified order.
// Intended for tooling and tests.
func (s *Store) Keys() []string {
	var keys []string
	for _, sh := range s.shards {
		sh.mu.RLock()
		for k, r := range sh.rows {
			r.mu.Lock()
			n := len(r.versions)
			r.mu.Unlock()
			if n > 0 {
				keys = append(keys, k)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(keys)
	return keys
}

// Len returns the number of keys with at least one version.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += len(sh.rows)
		sh.mu.RUnlock()
	}
	return n
}

// Close marks the store closed and closes the attached engine (flushing and
// syncing everything logged); subsequent operations return ErrClosed. Engine
// Close is idempotent, so closing a store whose engine was already closed by
// its opener is harmless.
func (s *Store) Close() {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	if !alreadyClosed && s.engine != nil {
		_ = s.engine.Close()
	}
}
