package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"paxoscp/internal/core"
	"paxoscp/internal/history"
	"paxoscp/internal/network"
	"paxoscp/internal/stats"
)

// TestMasterLeaseFencingNemesis is the headline split-brain test for epoch-
// fenced master leases (DESIGN.md §11). It manufactures the exact scenario
// the pre-fencing design document conceded was unsafe: the master is
// partitioned away from the prospective new master *but both keep quorum
// through the third datacenter*, so for a window the old master keeps
// actively pipelining while the new one claims the next epoch — two nodes
// that each believe they are master.
//
// The assertions are the fencing contract:
//   - no transaction is committed under two epochs (each committed txn
//     appears in exactly one live log entry, at the position and epoch its
//     client was told);
//   - nothing committed is lost, nothing duplicated (the epoch-aware
//     history checker flags a commit inside a fenced entry as F2);
//   - the new master's pipeline resumes and commits under the new epoch;
//   - after healing, clients pointed at the deposed master are redirected
//     by hint and commit under the new epoch.
func TestMasterLeaseFencingNemesis(t *testing.T) {
	const lease = 250 * time.Millisecond
	const seed = 31
	c := New(Config{
		Topology:      MustPaperTopology("VVV"),
		NetConfig:     network.SimConfig{Seed: seed, Scale: 0.002, Jitter: 0.2},
		Timeout:       80 * time.Millisecond,
		SubmitWindow:  4,
		SubmitCombine: 3,
		LeaseDuration: lease,
	})
	defer c.Close()
	ctx := context.Background()
	rec := &history.Recorder{}

	epochsSeen := make(map[string]int64) // txn ID -> committed epoch
	var epochMu sync.Mutex
	attach := func(cl *core.Client) {
		cl.OnCommit = func(pos int64, txn core.CommittedTxn) {
			epochMu.Lock()
			epochsSeen[txn.ID] = txn.Epoch
			epochMu.Unlock()
			rec.Record(history.Commit{
				ID: txn.ID, Origin: txn.Origin, ReadPos: txn.ReadPos,
				Pos: pos, Reads: txn.Reads, Writes: txn.Writes,
			})
		}
	}

	// run fires a wave of read-modify-write transactions at masterDC and
	// reports how many committed. Clients never retry a failed transaction,
	// so "committed" is exactly the set the log must contain once each.
	run := func(masterDC string, seedBase, workers, txns int) int {
		var wg sync.WaitGroup
		var mu sync.Mutex
		committed := 0
		for i := 0; i < workers; i++ {
			cl := c.NewClient(c.DCs()[i%3], core.Config{
				Protocol: core.Master, MasterDC: masterDC, Seed: int64(seedBase + i),
			})
			attach(cl)
			wg.Add(1)
			go func(i int, cl *core.Client) {
				defer wg.Done()
				for n := 0; n < txns; n++ {
					tx, err := cl.Begin(ctx, "g")
					if err != nil {
						continue
					}
					if _, _, err := tx.Read(ctx, fmt.Sprintf("k%d", (i+n)%5)); err != nil {
						tx.Abort()
						continue
					}
					tx.Write(fmt.Sprintf("k%d", (i*2+n+1)%5), fmt.Sprintf("%s-%d-%d", masterDC, i, n))
					res, err := tx.Commit(ctx)
					if err == nil && res.Status == stats.Committed {
						mu.Lock()
						committed++
						mu.Unlock()
					}
				}
			}(i, cl)
		}
		wg.Wait()
		return committed
	}

	// Phase 1: V1 is master (auto-claims epoch 1) and builds up traffic.
	phase1 := run("V1", 1, 4, 6)
	if phase1 == 0 {
		t.Fatal("no commits under epoch 1")
	}

	// The split: V1 and V2 cannot see each other, but both see V3 — each
	// side has a quorum. Keep a stream of clients hammering V1 through the
	// whole takeover, so V1 is actively placing epoch-1 entries (window 4,
	// several in flight) through V3's acceptor at the same time V2 claims
	// epoch 2 through it. The log, not the clock, decides who wins each
	// position; everything V1 lands above the winning claim is fenced.
	c.Partition("V1", "V2")
	streamStop := make(chan struct{})
	var streamWG sync.WaitGroup
	for w := 0; w < 3; w++ {
		cl := c.NewClient("V1", core.Config{
			Protocol: core.Master, MasterDC: "V1", Seed: int64(100 + w),
			Timeout: 60 * time.Millisecond,
		})
		attach(cl)
		streamWG.Add(1)
		go func(w int, cl *core.Client) {
			defer streamWG.Done()
			for i := 0; ; i++ {
				select {
				case <-streamStop:
					return
				default:
				}
				tx, err := cl.Begin(ctx, "g")
				if err != nil {
					continue
				}
				tx.Write(fmt.Sprintf("stream-%d-%d", w, i), "v")
				tx.Commit(ctx) // any verdict; truthfulness audited below
			}
		}(w, cl)
	}

	// V2 stops seeing V1's renewals the moment the link is cut (apply
	// fan-out no longer reaches it), waits out the lease, and claims.
	cctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	epoch2, err := c.Service("V2").ClaimMastership(cctx, "g")
	cancel()
	if err != nil {
		t.Fatalf("V2 takeover claim: %v", err)
	}
	if epoch2 < 2 {
		t.Fatalf("takeover epoch = %d, want >= 2", epoch2)
	}
	close(streamStop)
	streamWG.Wait()

	// Phase 2: the new master's pipeline carries the load under epoch 2,
	// with the old master still up and still partitioned from V2.
	phase2 := run("V2", 200, 4, 6)
	if phase2 == 0 {
		t.Fatal("new master's pipeline did not resume after the takeover")
	}

	// Heal. A client still pointed at the deposed V1 must be redirected by
	// the not-master hint and commit under the new epoch.
	c.Heal("V1", "V2")
	for _, dc := range c.DCs() {
		if err := c.Service(dc).Recover(ctx, "g"); err != nil {
			t.Fatalf("recover %s: %v", dc, err)
		}
	}
	redirected := c.NewClient("V3", core.Config{
		Protocol: core.Master, MasterDC: "V1", Seed: 999,
	})
	attach(redirected)
	tx, err := redirected.Begin(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	tx.Write("post-heal", "v")
	res, err := tx.Commit(ctx)
	if err != nil || res.Status != stats.Committed {
		t.Fatalf("redirected post-heal commit: %+v %v", res, err)
	}
	// While the partition lasted, mastership may have ping-ponged further
	// (each side re-claims when its view of the other's lease goes silent —
	// a liveness wobble fencing keeps safe), so the post-heal epoch is only
	// required to be at least the takeover epoch, never the deposed one.
	if res.Epoch < epoch2 {
		t.Fatalf("post-heal commit under epoch %d, want >= %d", res.Epoch, epoch2)
	}

	// The fencing contract, against the converged log. Commits must appear
	// exactly once in a live (non-fenced) entry at the reported position
	// with the reported epoch; the epoch-aware checker (which voids fenced
	// entries and flags F2) validates serializability on top.
	merged := c.Service("V2").LogSnapshot("g")
	fencedCount := 0
	livePlacement := make(map[string][]int64)
	epochAt := make(map[int64]int64)
	prevailing := int64(0)
	for pos := int64(1); pos <= int64(len(merged)); pos++ {
		e, ok := merged[pos]
		if !ok {
			// Diagnostics for a hole: which replicas had applied past it,
			// and how far past the entry count the log reaches.
			top := int64(0)
			for p := range merged {
				top = max(top, p)
			}
			applied := ""
			for _, dc := range c.DCs() {
				applied += fmt.Sprintf(" %s=%d", dc, c.Service(dc).LastApplied("g"))
			}
			t.Fatalf("log hole at %d (seed %d): V2's log has %d entries, highest position %d; applied watermarks:%s",
				pos, seed, len(merged), top, applied)
		}
		if e.IsClaim() {
			if e.Epoch > prevailing {
				prevailing = e.Epoch
			}
			continue
		}
		if e.Epoch != 0 && e.Epoch < prevailing {
			fencedCount++
			continue
		}
		epochAt[pos] = e.Epoch
		for _, txn := range e.Txns {
			livePlacement[txn.ID] = append(livePlacement[txn.ID], pos)
		}
	}
	commits := rec.Commits()
	for _, cm := range commits {
		got := livePlacement[cm.ID]
		if len(got) == 0 {
			t.Errorf("committed transaction %s lost (or only in a fenced entry)", cm.ID)
			continue
		}
		if len(got) > 1 {
			t.Errorf("transaction %s committed under two epochs: live at positions %v", cm.ID, got)
			continue
		}
		if got[0] != cm.Pos {
			t.Errorf("transaction %s reordered: client saw %d, log has %d", cm.ID, cm.Pos, got[0])
		}
		epochMu.Lock()
		wantEpoch := epochsSeen[cm.ID]
		epochMu.Unlock()
		if epochAt[got[0]] != wantEpoch {
			t.Errorf("transaction %s: client saw epoch %d, log entry carries %d",
				cm.ID, wantEpoch, epochAt[got[0]])
		}
	}
	t.Logf("fencing nemesis: %d commits (%d/%d per phase), %d log entries, %d fenced",
		len(commits), phase1, phase2, len(merged), fencedCount)
	checkHistory(t, c, "g", rec)
}

// TestDeposedMasterAmbiguousBurstNeverDoubleCommits pins the deposed-master
// drain rule (F3): transactions in flight at the moment of a full partition
// either fail or, if their entry was already decided below the takeover
// claim, commit under the old epoch — but a commit verdict and a fenced
// entry for the same transaction can never coexist.
func TestDeposedMasterAmbiguousBurstNeverDoubleCommits(t *testing.T) {
	c := New(Config{
		Topology:      MustPaperTopology("VVV"),
		NetConfig:     network.SimConfig{Seed: 7, Scale: 0.002, Jitter: 0.1},
		Timeout:       60 * time.Millisecond,
		SubmitWindow:  4,
		LeaseDuration: 200 * time.Millisecond,
	})
	defer c.Close()
	ctx := context.Background()

	// Seed mastership at V1.
	seed := c.NewClient("V2", core.Config{Protocol: core.Master, MasterDC: "V1", Seed: 1})
	tx, _ := seed.Begin(ctx, "g")
	tx.Write("seed", "v")
	if res, err := tx.Commit(ctx); err != nil || res.Status != stats.Committed {
		t.Fatalf("seed: %+v %v", res, err)
	}

	// Isolate V1 completely with a burst in flight: every burst commit
	// verdict it hands out after this point would be a lie — fencing and
	// the ambiguous-outcome rule must turn them all into failures.
	results := make([]core.CommitResult, 6)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		cl := c.NewClient("V1", core.Config{
			Protocol: core.Master, MasterDC: "V1", Seed: int64(10 + i),
			Timeout: 60 * time.Millisecond,
		})
		tx, err := cl.Begin(ctx, "g")
		if err != nil {
			continue
		}
		tx.Write(fmt.Sprintf("burst-%d", i), "v")
		wg.Add(1)
		go func(i int, tx *core.Tx) {
			defer wg.Done()
			results[i], _ = tx.Commit(ctx)
		}(i, tx)
	}
	c.Partition("V1", "V2")
	c.Partition("V1", "V3")
	wg.Wait()

	// V2 takes over and commits under epoch 2.
	cctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	if _, err := c.Service("V2").ClaimMastership(cctx, "g"); err != nil {
		cancel()
		t.Fatalf("takeover: %v", err)
	}
	cancel()
	cl2 := c.NewClient("V2", core.Config{Protocol: core.Master, MasterDC: "V2", Seed: 99})
	tx2, _ := cl2.Begin(ctx, "g")
	tx2.Write("after", "v")
	if res, err := tx2.Commit(ctx); err != nil || res.Status != stats.Committed {
		t.Fatalf("post-takeover commit: %+v %v", res, err)
	}

	// Heal and converge, then audit every burst verdict against the log.
	c.Heal("V1", "V2")
	c.Heal("V1", "V3")
	for _, dc := range c.DCs() {
		if err := c.Service(dc).Recover(ctx, "g"); err != nil {
			t.Fatalf("recover %s: %v", dc, err)
		}
	}
	merged := c.Service("V3").LogSnapshot("g")
	prevailing := int64(0)
	liveTxns := make(map[string]bool)
	for pos := int64(1); pos <= int64(len(merged)); pos++ {
		e := merged[pos]
		if e.IsClaim() {
			if e.Epoch > prevailing {
				prevailing = e.Epoch
			}
			continue
		}
		if e.Epoch != 0 && e.Epoch < prevailing {
			continue // fenced
		}
		for _, txn := range e.Txns {
			liveTxns[txn.ID] = true
		}
	}
	for i, res := range results {
		if res.Status != stats.Committed {
			continue
		}
		// A commit verdict must be backed by a live (non-fenced) log entry
		// carrying the transaction's write.
		found := false
		for pos := int64(1); pos <= int64(len(merged)); pos++ {
			for _, txn := range merged[pos].Txns {
				if _, ok := txn.Writes[fmt.Sprintf("burst-%d", i)]; ok && liveTxns[txn.ID] {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("burst %d reported committed but has no live log entry", i)
		}
	}
}
