package main

import (
	"context"
	"fmt"
	"strings"

	"paxoscp/internal/history"
	"paxoscp/internal/kvstore"
	"paxoscp/internal/replog"
	"paxoscp/internal/wal"
)

// The correctness gate. Every run ends here; a run that fails any check
// prints no numbers and exits non-zero.

// verify brings every replica up to date (the §4.1 recovery procedure) and
// checks one-copy serializability and replica convergence.
func (d *deployment) verify(ctx context.Context) error {
	for _, g := range d.groups {
		for _, dc := range d.dcs {
			if err := d.svc(dc).Recover(ctx, g); err != nil {
				return fmt.Errorf("recover %s/%s: %w", dc, g, err)
			}
		}
	}
	if err := d.checkHistory(d.dcs...); err != nil {
		return err
	}
	return d.checkConverged()
}

// checkHistory runs the 1SR checker over the named replicas' logs (plus
// the compaction archive) for every group, against every commit clients
// observed.
func (d *deployment) checkHistory(dcs ...string) error {
	commits := d.rec.Commits()
	if len(commits) == 0 {
		return fmt.Errorf("history: no commits recorded")
	}
	byGroup := history.ByGroup(commits)
	for g := range byGroup {
		if !contains(d.groups, g) {
			return fmt.Errorf("history: commit on unknown group %q", g)
		}
	}
	for _, g := range d.groups {
		logs := map[string]map[int64]wal.Entry{}
		for _, dc := range dcs {
			logs[dc] = d.svc(dc).LogSnapshot(g)
		}
		if a := d.archive[g]; len(a) > 0 {
			logs["archive"] = a
		}
		if vs := history.Check(logs, byGroup[g]); len(vs) > 0 {
			return fmt.Errorf("history %s over %v: %d violations, first: %s", g, dcs, len(vs), vs[0])
		}
	}
	return nil
}

// checkConverged checks that every replica has applied the same prefix of
// every group's log and holds the same data rows.
func (d *deployment) checkConverged() error {
	for _, g := range d.groups {
		lead := d.masterOf(g)
		w := d.svc(lead).LastApplied(g)
		if w == 0 {
			return fmt.Errorf("converge %s: empty log", g)
		}
		for _, dc := range d.dcs {
			if got := d.svc(dc).LastApplied(g); got != w {
				return fmt.Errorf("converge %s: %s applied %d, %s applied %d", g, dc, got, lead, w)
			}
			if dc == lead {
				continue
			}
			if err := sameRows(g, w, d.svc(lead).Store(), d.svc(dc).Store()); err != nil {
				return fmt.Errorf("converge %s: %s vs %s: %w", g, dc, lead, err)
			}
		}
	}
	return nil
}

// sameRows compares two replicas' data rows for group as of log position
// pos, page by page over the ordered index.
func sameRows(group string, pos int64, a, b *kvstore.Store) error {
	prefix := replog.DataPrefix(group)
	after := ""
	n := 0
	for {
		ra, moreA, err := a.ScanPrefix(prefix, after, 1024, pos)
		if err != nil {
			return err
		}
		rb, moreB, err := b.ScanPrefix(prefix, after, 1024, pos)
		if err != nil {
			return err
		}
		if len(ra) != len(rb) || moreA != moreB {
			return fmt.Errorf("page after %q: %d rows vs %d", after, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i].Key != rb[i].Key || ra[i].Val["v"] != rb[i].Val["v"] || ra[i].TS != rb[i].TS {
				return fmt.Errorf("row %q@%d=%q vs %q@%d=%q", ra[i].Key, ra[i].TS, ra[i].Val["v"],
					rb[i].Key, rb[i].TS, rb[i].Val["v"])
			}
		}
		n += len(ra)
		if !moreA {
			break
		}
		after = ra[len(ra)-1].Key
	}
	if n == 0 {
		return fmt.Errorf("no rows at position %d", pos)
	}
	return nil
}

// crashCheck power-fails dc, reopens it from its data directory with
// disk.Open, and checks that nothing it acknowledged is lost: its
// recovered watermark is where it was, and its log alone satisfies the
// checker for every commit clients saw. Recovery from peers and the full
// gate then run again.
func (d *deployment) crashCheck(ctx context.Context, dc string) error {
	before := map[string]int64{}
	for _, g := range d.groups {
		before[g] = d.svc(dc).LastApplied(g)
	}
	if err := d.crash(dc); err != nil {
		return err
	}
	if err := d.start(dc); err != nil {
		return fmt.Errorf("reopen %s: %w", dc, err)
	}
	for _, g := range d.groups {
		if got := d.svc(dc).LastApplied(g); got < before[g] {
			return fmt.Errorf("power failure: %s/%s recovered to position %d, had applied %d", dc, g, got, before[g])
		}
	}
	if err := d.checkHistory(dc); err != nil {
		return fmt.Errorf("power failure: %w", err)
	}
	return d.verify(ctx)
}

// scanOrderError describes a scan page that broke the ordering contract,
// or "" when the row is fine.
func scanOrderError(prefix, prev, key string) string {
	if !strings.HasPrefix(key, prefix) {
		return fmt.Sprintf("scan returned %q outside prefix %q", key, prefix)
	}
	if key <= prev {
		return fmt.Sprintf("scan returned %q after %q", key, prev)
	}
	return ""
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
