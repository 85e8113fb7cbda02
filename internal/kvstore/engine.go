package kvstore

import "fmt"

// The storage backend seam (DESIGN.md §14). A Store keeps its working image
// in memory either way; an attached Engine makes that image durable by
// logging every mutation to a write-ahead log before the mutating operation
// acknowledges. nil engine (the default) is the in-memory backend the
// simulator and most tests run on: mutations skip the seam entirely, so the
// memory-only hot path stays allocation-identical to the pre-seam store.
//
// The contract every mutating operation follows:
//
//  1. validate and apply the mutation to the in-memory image under the
//     row (or shard) lock, exactly as before;
//  2. still under that lock, Append the corresponding Mutation records to
//     the engine — Append only encodes and assigns sequence numbers, it
//     never blocks on I/O;
//  3. release the lock, then Sync to the returned sequence number;
//  4. only then return success to the caller.
//
// Because the ack waits for Sync, a write the caller saw succeed is durable
// to the engine's sync policy (invariant D1). Because Append happens under
// the same lock as the apply, the WAL orders the mutations of any one row
// exactly as they were applied, so recovery replay converges on the
// pre-crash acknowledged state even for non-commutative pairs (a Delete
// racing a Write on the same key). Because Append happens after the
// in-memory apply, a snapshot of the memory image taken after observing
// sequence number S reflects every logged mutation <= S, which is what lets
// the disk engine truncate log segments behind a snapshot (DESIGN.md §14).
// Replay is idempotent (invariant D2): OpWrite carries an explicit version
// timestamp and re-applies with WriteIdempotent semantics, so recovery may
// replay records already reflected in a snapshot, partial tails of batches,
// or the same segment twice without changing the outcome.

// Op identifies the kind of one logged Mutation.
type Op uint8

// Mutation kinds. The numbering is part of the disk engine's record format;
// never renumber.
const (
	// OpWrite creates (idempotently) the version TS of row Key with
	// contents Value. All write-family operations — Write, WriteIdempotent,
	// CheckAndWrite, Update, ApplyBatch — log as OpWrite with the timestamp
	// they resolved; CheckAndWrite and Update follow it with an OpGC at the
	// same timestamp when they replaced an older version.
	OpWrite Op = 1
	// OpDelete removes row Key and all its versions (compaction scavenge).
	OpDelete Op = 2
	// OpGC discards versions of Key older than the newest one at or below
	// TS, mirroring Store.GC's keepFrom.
	OpGC Op = 3
)

// Mutation is one durable row mutation, the unit the engine logs and the
// recovery path replays.
type Mutation struct {
	Op  Op
	Key string
	// TS is the version timestamp for OpWrite and the keepFrom horizon for
	// OpGC; unused for OpDelete.
	TS int64
	// Value is the version contents for OpWrite, as Pack encodes them —
	// exactly the bytes the disk engine's WAL stores; empty otherwise.
	Value Packed
}

// Engine is a durability backend behind a Store. Implementations must be
// safe for concurrent use; the Store calls Append/Sync from every mutating
// operation concurrently. The in-memory backend is the nil Engine.
//
// Append and Sync are split so an engine can group-commit: Append enqueues
// the records and returns immediately with the sequence number of the last
// one; Sync blocks until that sequence number is durable per the engine's
// sync policy (which may legitimately be "not at all yet" for interval
// policies). One fsync may satisfy many concurrent Sync calls.
type Engine interface {
	// Append encodes and enqueues muts, returning the sequence number
	// assigned to the last record. It must not block on I/O completion.
	Append(muts []Mutation) (seq uint64, err error)
	// Sync returns once every record at or below seq is durable under the
	// engine's sync policy. A failed Sync is sticky: the engine and the
	// store above it fail-stop (DESIGN.md §14, disk-full behavior).
	Sync(seq uint64) error
	// Close flushes and durably syncs everything enqueued, then releases
	// the engine's resources. Close is idempotent.
	Close() error
}

// AttachEngine wires a durability engine into the store. It must be called
// before the store is shared across goroutines (the disk engine's Open
// attaches right after recovery replay, before returning the store); the
// field is read without synchronization afterwards.
func (s *Store) AttachEngine(e Engine) { s.engine = e }

// Engine returns the attached durability engine (nil for the in-memory
// backend). Callers use it for optional-interface health probes (the disk
// engine's HealthSummary); the mutation path never goes through it.
func (s *Store) Engine() Engine { return s.engine }

// faultReporter is the optional engine interface EngineFailure polls, so a
// failure that happened off the mutation path — a background snapshot or
// interval fsync — is visible before any mutation trips over it.
type faultReporter interface{ Fault() error }

// EngineFailure reports the durability-engine failure this store has
// fail-stopped on, nil while healthy. It checks the store's sticky error
// first, then asks the engine itself (the engine can poison from a
// background flush the store hasn't touched yet). Reads keep working after
// a failure; every mutation fails with an EngineError wrapping this.
func (s *Store) EngineFailure() error {
	s.mu.Lock()
	err := s.engineErr
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if fr, ok := s.engine.(faultReporter); ok {
		return fr.Fault()
	}
	return nil
}

// appendMut enqueues muts in the engine. Append never blocks on I/O, so
// callers invoke it while still holding the row (or shard) lock of the row
// they just mutated — that is what pins the WAL order of a row's mutations
// to their apply order (see the protocol comment above). Callers check
// s.engine != nil first so the memory-only path never builds the variadic
// slice. An engine failure is sticky (fail-stop), as with syncMut.
func (s *Store) appendMut(muts ...Mutation) (uint64, error) {
	seq, err := s.engine.Append(muts)
	if err != nil {
		s.stickEngineErr(err)
		return 0, &EngineError{Err: err}
	}
	return seq, nil
}

// syncMut waits for sequence number seq to be durable per the engine's sync
// policy. Called after the row lock is released, so an fsync never stalls
// readers or other writers of the row. An engine failure is sticky: every
// subsequent mutating operation fails with it (fail-stop), while reads keep
// serving the in-memory image so a wedged replica can still be inspected
// and its peers caught up from it.
func (s *Store) syncMut(seq uint64) error {
	if err := s.engine.Sync(seq); err != nil {
		s.stickEngineErr(err)
		return &EngineError{Err: err}
	}
	return nil
}

func (s *Store) stickEngineErr(err error) {
	s.mu.Lock()
	if s.engineErr == nil {
		s.engineErr = err
	}
	s.mu.Unlock()
}

// EngineError wraps a durability-engine failure surfaced by a store
// operation: the in-memory image may be ahead of the durable log for the
// failing operation, and the store has fail-stopped further mutations.
type EngineError struct{ Err error }

func (e *EngineError) Error() string { return "kvstore: engine: " + e.Err.Error() }
func (e *EngineError) Unwrap() error { return e.Err }

// ApplyMutation applies one recovered mutation to the in-memory image
// without logging it back to the engine. It exists for the recovery replay
// path only (the disk engine's Open), before the engine is attached.
// OpWrite re-applies with WriteIdempotent semantics, so replaying records
// already reflected in a snapshot — or replaying a log twice — is harmless;
// a conflicting rewrite of an existing version reports ErrStaleWrite, which
// recovery treats as log corruption.
func (s *Store) ApplyMutation(m Mutation) error {
	switch m.Op {
	case OpWrite:
		r := s.getRow(m.Key, true)
		r.mu.Lock()
		_, err := r.applyIdempotent(m.TS, m.Value)
		r.mu.Unlock()
		if err != nil {
			return fmt.Errorf("%w key=%q", err, m.Key)
		}
		return nil
	case OpDelete:
		sh := s.shards[shardFor(m.Key)]
		sh.mu.Lock()
		if r := sh.rows[m.Key]; r != nil {
			r.mu.Lock()
			r.gone = true
			r.mu.Unlock()
			delete(sh.rows, m.Key)
			sh.noteDeleteLocked()
		}
		sh.mu.Unlock()
		return nil
	case OpGC:
		s.gcRow(m.Key, m.TS)
		return nil
	default:
		return fmt.Errorf("kvstore: unknown mutation op %d", m.Op)
	}
}
