// Package kvstore implements the multi-version key-value store that forms
// the foundation tier of each datacenter (paper §2.2).
//
// The transaction tier depends on exactly three atomic operations, which
// this package provides with per-row atomicity:
//
//   - Read(key, ts): most recent version with timestamp <= ts
//   - Write(key, value, ts): create a new version; error if a newer exists
//   - CheckAndWrite(key, testAttr, testValue, value): conditional write on
//     an attribute of the latest version
//
// Timestamps are logical; the transaction tier uses write-ahead-log
// positions as timestamps (paper §3.2). The paper's prototype used HBase;
// this store implements the same abstraction contract with 32-way sharding
// and per-row version arrays, each version one immutable packed string in
// the disk WAL's value layout (see DESIGN.md §5). The working image lives in
// memory; durability is a pluggable backend behind the Engine seam
// (DESIGN.md §14): with no engine attached (the default) the store is
// purely in-memory — the simulator's and most tests' backend — and
// internal/kvstore/disk supplies a write-ahead-logged engine whose Open
// recovers the store after a crash. Every mutating operation applies to the
// image first, then logs to the engine and waits for durability per its
// sync policy before acknowledging.
//
// Beyond the paper's contract the store provides the maintenance surface a
// running system needs: ApplyBatch (idempotent, explicitly-timestamped
// write batches for the replicated-log apply path — one shard-lock
// acquisition per touched shard, and one engine log call per batch so the
// whole batch shares a group commit), ReadMulti (batched multi-key reads at
// one timestamp), Update, GC, Delete, prefix scans, and gob persistence
// (Save/Load, SaveFile/LoadFile — also the disk engine's snapshot format).
// The storetest subpackage holds the conformance suite every backend must
// pass.
package kvstore
