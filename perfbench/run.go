package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"paxoscp/internal/core"
	"paxoscp/internal/stats"
	"paxoscp/internal/wal"
	"paxoscp/internal/ycsb"
)

const (
	// setupRepeats is how many times a run builds and preloads the
	// deployment; setup_s is the median.
	setupRepeats = 5
	// warmup runs the load before the measured window opens, so lazy
	// set-up (group pipelines, mastership claims, caches) is done.
	warmup = time.Second
	// outageCycles outage cycles start in each measured window, evenly
	// spaced from its opening, so every run pays for the same number.
	outageCycles = 3
)

// metric is one printed number: its value, unit, and the base it came from
// (a sample count for percentiles, the denominator for ratios).
type metric struct {
	name  string
	value float64
	unit  string
	base  string
}

// phase is one measured run of a workload: set-up, warm-up, the measured
// window, and the correctness gate.
type phase struct {
	w       *workload
	seed    int64
	seconds time.Duration
	traced  bool

	d      *deployment
	tr     *tracer
	load   *loader
	setups []float64 // seconds per set-up

	t0, t1   time.Time
	samples  []txnSample // completed inside the window
	cycles   []cycle     // outage cycles that rejoined inside the window
	counters struct{ at0, at1 snapshot }
	heapLive uint64
	// entryBytes is the encoded size of the log entries decided in the
	// window, read (traced runs only) before the deployment closes.
	entryBytes int

	lagMax, goroutinesMax atomic.Int64
	victimDown            atomic.Bool
}

// cycle is one catch-up outage cycle.
type cycle struct {
	rejoin time.Time
	took   time.Duration
}

// snapshot holds the cumulative counters read at each edge of the window.
type snapshot struct {
	cpu       time.Duration
	mem       runtime.MemStats
	applied   map[string]int64 // per group, at its master
	simSent   int64
	handled   [256]int64
	timeouts  int64
	walBytes  int64
	fsyncs    uint64
	examined  int64
	scanRows  int64
	transferN int64
	transferB int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (p *phase) snap() snapshot {
	var s snapshot
	s.cpu = cpuTime()
	runtime.ReadMemStats(&s.mem)
	s.applied = map[string]int64{}
	for _, g := range p.d.groups {
		s.applied[g] = p.d.svc(p.d.masterOf(g)).LastApplied(g)
	}
	if p.d.sim != nil {
		s.simSent = p.d.sim.Counters().TotalSent()
	}
	p.d.mu.RLock()
	for _, st := range p.d.stores {
		s.examined += st.ScanExamined()
	}
	for _, e := range p.d.engines {
		if e != nil {
			s.fsyncs += e.Fsyncs()
		}
	}
	p.d.mu.RUnlock()
	s.scanRows = p.load.scanRows.Load()
	if t := p.tr; t != nil {
		for i := range t.handled {
			s.handled[i] = t.handled[i].Load()
		}
		s.timeouts = t.timeouts.Load()
		s.walBytes = t.walBytes.Load()
		s.transferN = t.transferMsgs.Load()
		s.transferB = t.transferBytes.Load()
	}
	return s
}

// dataDir is a fresh directory for disk engines inside the working
// directory (the checkout), removed when the deployment closes.
func dataDir(name string, i int) string {
	return filepath.Join(".bench_build", "data", name+"-"+strconv.Itoa(os.Getpid())+"-"+strconv.Itoa(i))
}

// setup builds and preloads the deployment setupRepeats times (once when
// traced), keeping the last and recording each duration.
func (p *phase) setup(ctx context.Context) error {
	n := setupRepeats
	if p.traced {
		n = 1
	}
	for i := 0; i < n; i++ {
		if p.d != nil {
			p.d.close()
			p.d = nil
		}
		if p.traced {
			p.tr = newTracer()
		}
		start := time.Now()
		d, err := deploy(p.w, p.tr, dataDir(p.w.Name, i), p.seed)
		if err != nil {
			return err
		}
		p.d = d
		if err := d.preload(ctx, p.seed); err != nil {
			return err
		}
		p.setups = append(p.setups, time.Since(start).Seconds())
	}
	return nil
}

// run executes the phase end to end; the deployment is closed on return.
func (p *phase) run(ctx context.Context) error {
	defer func() {
		if p.d != nil {
			p.d.close()
		}
	}()
	if err := p.setup(ctx); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	p.load = &loader{d: p.d}

	mix := p.w.Mix
	mix.Groups = p.d.groups
	clients := make([]*core.Client, len(p.w.Clients))
	for i, dc := range p.w.Clients {
		c, err := p.d.newClient(dc, p.seed)
		if err != nil {
			return err
		}
		clients[i] = c
	}
	var wg sync.WaitGroup
	results := make([][]txnSample, len(clients))
	for i, c := range clients {
		gen := ycsb.NewGenerator(mix, p.seed*1000+int64(i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = p.load.run(ctx, c, gen)
		}()
	}
	var bg sync.WaitGroup
	var cycleErr error
	var cycles []cycle
	opened := make(chan time.Time, 1)
	if p.w.Outages {
		bg.Add(1)
		go func() {
			defer bg.Done()
			cycles, cycleErr = p.outages(ctx, opened)
		}()
	}
	samplerDone := make(chan struct{})
	if p.traced {
		bg.Add(1)
		go func() {
			defer bg.Done()
			p.sample(samplerDone)
		}()
	}

	time.Sleep(warmup)
	p.t0 = time.Now()
	p.counters.at0 = p.snap()
	opened <- p.t0
	time.Sleep(p.seconds)
	p.t1 = time.Now()
	p.counters.at1 = p.snap()
	p.load.stop.Store(true)
	wg.Wait()
	close(samplerDone)
	bg.Wait()

	for _, rs := range results {
		for _, s := range rs {
			if !s.end.Before(p.t0) && s.end.Before(p.t1) {
				p.samples = append(p.samples, s)
			}
		}
	}
	for _, c := range cycles {
		if !c.rejoin.Before(p.t0) && c.rejoin.Before(p.t1) {
			p.cycles = append(p.cycles, c)
		}
	}
	// The correctness gate.
	if cycleErr != nil {
		return cycleErr
	}
	if len(p.load.errs) > 0 {
		return fmt.Errorf("%d scan-order violations, first: %s", len(p.load.errs), p.load.errs[0])
	}
	if len(p.samples) == 0 {
		return fmt.Errorf("no transaction completed in the measured window")
	}
	if p.w.Outages && len(p.cycles) == 0 {
		return fmt.Errorf("no outage cycle rejoined in the measured window")
	}
	if err := p.d.verify(ctx); err != nil {
		return err
	}
	// Live heap is read once the replicas have converged, so no engine
	// snapshot or apply burst still in flight is counted.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapLive = ms.HeapAlloc
	if p.traced {
		p.entryBytes = p.windowEntryBytes()
	}
	if p.w.Crash != "" {
		if err := p.d.crashCheck(ctx, p.w.Crash); err != nil {
			return err
		}
	}
	return nil
}

// windowEntryBytes sums the wal encoding of every log entry decided in the
// measured window, at each group's master (compacted entries from the
// archive).
func (p *phase) windowEntryBytes() int {
	a, b := p.counters.at0.applied, p.counters.at1.applied
	n := 0
	for _, g := range p.d.groups {
		log := p.d.svc(p.d.masterOf(g)).LogSnapshot(g)
		for pos, e := range p.d.archive[g] {
			log[pos] = e
		}
		for pos, e := range log {
			if pos > a[g] && pos <= b[g] {
				n += len(wal.Encode(e))
			}
		}
	}
	return n
}

// sample polls apply lag and goroutine count until done.
func (p *phase) sample(done <-chan struct{}) {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
		}
		maxInto(&p.goroutinesMax, int64(runtime.NumGoroutine()))
		down := p.victimDown.Load()
		for _, g := range p.d.groups {
			lo, hi := int64(-1), int64(0)
			for _, dc := range p.d.dcs {
				if down && dc == p.w.Victim {
					continue
				}
				a := p.d.svc(dc).LastApplied(g)
				if lo < 0 || a < lo {
					lo = a
				}
				if a > hi {
					hi = a
				}
			}
			maxInto(&p.lagMax, hi-lo)
		}
	}
}

// outages runs outageCycles catch-up cycles, the i-th starting i/outageCycles
// of the way through the window that opens on opened: take the victim down,
// keep writing, archive and compact the other replicas' logs to their
// watermarks, bring the victim back and time CatchUp to the leader's
// watermark. The check that the victim's rows equal the leader's at the
// victim's new watermark runs at the start of the next outage, while the master's first
// fast round stalls the foreground client, so its scans do not compete
// with the load; the last cycle's check runs after the window.
func (p *phase) outages(ctx context.Context, opened <-chan time.Time) ([]cycle, error) {
	d, v := p.d, p.w.Victim
	type rejoin struct {
		group string
		at    int64 // the victim's watermark when CatchUp returned
	}
	var out []cycle
	var pending []rejoin
	check := func() error {
		for _, r := range pending {
			leader := d.svc(d.masterOf(r.group))
			if err := sameRows(r.group, r.at, leader.Store(), d.svc(v).Store()); err != nil {
				return fmt.Errorf("catch-up %s/%s at %d: %w", v, r.group, r.at, err)
			}
		}
		pending = pending[:0]
		return nil
	}
	t0 := <-opened
	for i := 0; i < outageCycles; i++ {
		time.Sleep(time.Until(t0.Add(p.seconds * time.Duration(i) / outageCycles)))
		if p.load.stop.Load() {
			break
		}
		p.victimDown.Store(true)
		d.sim.SetDown(v, true)
		downAt := time.Now()
		if err := check(); err != nil {
			return out, err
		}
		time.Sleep(time.Until(downAt.Add(p.w.Down)))
		for _, g := range d.groups {
			for _, dc := range d.dcs {
				if dc == v {
					continue
				}
				svc := d.svc(dc)
				horizon := svc.LastApplied(g) - p.w.CompactMargin
				d.archiveLog(g, svc.LogSnapshot(g), horizon)
				if _, err := svc.Compact(g, horizon); err != nil {
					return out, fmt.Errorf("compact %s/%s: %w", dc, g, err)
				}
			}
		}
		d.sim.SetDown(v, false)
		p.victimDown.Store(false)
		for _, g := range d.groups {
			target := d.svc(d.masterOf(g)).LastApplied(g)
			if p.tr != nil {
				p.tr.catchupFrom.Store(v)
			}
			horizon := d.svc(v).CompactedTo(g)
			start := time.Now()
			err := d.svc(v).CatchUp(ctx, g, target)
			took := time.Since(start)
			if p.tr != nil {
				p.tr.catchupFrom.Store("")
			}
			if err != nil {
				return out, fmt.Errorf("catch-up %s/%s: %w", v, g, err)
			}
			if d.svc(v).CompactedTo(g) <= horizon {
				// The workload exists to drive snapshot transfer.
				return out, fmt.Errorf("catch-up %s/%s to %d did not install a snapshot", v, g, target)
			}
			// Compare at the victim's own watermark: a snapshot built a
			// moment after target was read can land above it, and the
			// victim then holds only the newest version at or below the
			// snapshot's horizon, not every version below target.
			pending = append(pending, rejoin{g, d.svc(v).LastApplied(g)})
			out = append(out, cycle{rejoin: start, took: took})
		}
	}
	return out, check()
}

// archiveLog keeps the entries at or below horizon, which compaction is
// about to scavenge, for the checker.
func (d *deployment) archiveLog(group string, log map[int64]wal.Entry, horizon int64) {
	a := d.archive[group]
	if a == nil {
		a = map[int64]wal.Entry{}
		d.archive[group] = a
	}
	for pos, e := range log {
		if pos <= horizon {
			a[pos] = e
		}
	}
}

// e2e computes the end-to-end metrics from the window.
func (p *phase) e2e() []metric {
	secs := p.t1.Sub(p.t0).Seconds()
	var txn, ro dist
	var commits, attempted int
	for _, s := range p.samples {
		attempted++
		if s.outcome != stats.Committed {
			continue
		}
		commits++
		if s.readOnly {
			ro.addDur(s.end.Sub(s.start), time.Millisecond)
		} else {
			txn.addDur(s.end.Sub(s.start), time.Millisecond)
		}
	}
	a, b := p.counters.at0, p.counters.at1
	cpu := (b.cpu - a.cpu).Seconds() * 1e3
	alloc := float64(b.mem.TotalAlloc-a.mem.TotalAlloc) / 1024
	setup := dist{vals: append([]float64(nil), p.setups...)}
	n := func(d *dist) string { return fmt.Sprintf("n=%d", d.n()) }
	ms := []metric{
		{"setup_s", setup.pct(50), "s", fmt.Sprintf("median of %d set-ups", setup.n())},
		{"goodput_tps", ratio(float64(commits), secs), "1/s", fmt.Sprintf("%d commits / %.3f s", commits, secs)},
		{"commit_fraction", ratio(float64(commits), float64(attempted)), "ratio", fmt.Sprintf("%d / %d attempted", commits, attempted)},
		{"txn_p50_ms", txn.pct(50), "ms", n(&txn)},
		{"txn_p80_ms", txn.pct(80), "ms", fmt.Sprintf("n=%d, %d beyond", txn.n(), txn.beyond(80))},
		{"cpu_ms_per_commit", ratio(cpu, float64(commits)), "ms", fmt.Sprintf("%.1f ms cpu / %d commits", cpu, commits)},
		{"alloc_kb_per_commit", ratio(alloc, float64(commits)), "KiB", fmt.Sprintf("%.0f KiB / %d commits", alloc, commits)},
		{"heap_live_mb", float64(p.heapLive) / (1 << 20), "MiB", "after forced GC, replicas converged"},
		// Printed but not gated: the tail and read-only percentiles and
		// catch-up time do not hold steady run to run on every workload (or
		// do not exist on it), so the traced run reports them ungated.
		{"txn_p99_ms", txn.pct(99), "ms", fmt.Sprintf("n=%d, %d beyond", txn.n(), txn.beyond(99))},
		{"ro_p50_ms", ro.pct(50), "ms", n(&ro)},
		{"ro_p99_ms", ro.pct(99), "ms", fmt.Sprintf("n=%d, %d beyond", ro.n(), ro.beyond(99))},
	}
	var cu dist
	for _, c := range p.cycles {
		cu.addDur(c.took, time.Second)
	}
	ms = append(ms, metric{"catchup_s", cu.pct(50), "s", fmt.Sprintf("median of %d rejoins", cu.n())})
	return ms
}

// counts returns transactions attempted and failed (errors and refusals;
// conflict aborts are protocol outcomes, not failures) in the window.
func (p *phase) counts() (attempted, failed int) {
	for _, s := range p.samples {
		attempted++
		if s.outcome == stats.Failed || s.outcome == stats.Rejected {
			failed++
		}
	}
	return attempted, failed
}

// perLayer computes the traced phase's per-layer metrics.
func (p *phase) perLayer() []metric {
	a, b := p.counters.at0, p.counters.at1
	lo, hi := int64(p.t0.Sub(p.tr.epoch)), int64(p.t1.Sub(p.tr.epoch))
	spans := p.tr.recorded()
	tree := newSpanTree(spans)

	var commits, rwCommits, attempted, aborted, failed, promoted, combined int
	var commitUs, rounds dist
	for _, s := range p.samples {
		attempted++
		switch s.outcome {
		case stats.Committed:
			commits++
			if !s.readOnly {
				rwCommits++
				commitUs.addDur(s.commit, time.Microsecond)
				rounds.add(float64(s.round))
				if s.round > 0 {
					promoted++
				}
				if s.combined {
					combined++
				}
			}
		case stats.Aborted:
			aborted++
		default:
			failed++
		}
	}
	c, rw := float64(commits), float64(rwCommits)
	baseC, baseRW := fmt.Sprintf("/ %d commits", commits), fmt.Sprintf("/ %d read-write commits", rwCommits)

	var out []metric
	pcts := func(name string, d *dist, unit string) {
		out = append(out,
			metric{name + ".p50", d.pct(50), unit, fmt.Sprintf("n=%d", d.n())},
			metric{name + ".p99", d.pct(99), unit, fmt.Sprintf("n=%d, %d beyond", d.n(), d.beyond(99))})
	}

	// Client layer (core.Tx).
	pcts("client.commit_us", &commitUs, "us")
	out = append(out,
		metric{"client.rounds_mean", rounds.mean(), "count", fmt.Sprintf("n=%d", rounds.n())},
		metric{"client.promoted_fraction", ratio(float64(promoted), rw), "ratio", fmt.Sprintf("%d %s", promoted, baseRW)},
		metric{"client.combined_fraction", ratio(float64(combined), rw), "ratio", fmt.Sprintf("%d %s", combined, baseRW)},
		metric{"client.abort_fraction", ratio(float64(aborted), float64(attempted)), "ratio", fmt.Sprintf("%d / %d attempted", aborted, attempted)},
		metric{"client.fail_fraction", ratio(float64(failed), float64(attempted)), "ratio", fmt.Sprintf("%d / %d attempted", failed, attempted)},
	)
	var byName [numSpanNames]dist
	var self [numSpanNames]dist
	var scanPage dist
	var rpc, busy [256]dist
	var fsync dist
	for _, s := range spans {
		if s.start < lo || s.start >= hi {
			continue
		}
		durUs := float64(s.end-s.start) / 1e3
		byName[s.name].add(durUs)
		self[s.name].add(float64(tree.self(s)) / 1e3)
		switch s.name {
		case spScan:
			if tree.hasChild(s.id, spSend) {
				scanPage.add(durUs)
			}
		case spSend:
			if !s.abandoned {
				rpc[s.kind].add(durUs)
			}
		case spHandler:
			busy[s.kind].add(durUs)
		case spFSSync:
			if s.kind == fsWAL {
				fsync.add(durUs)
			}
		}
	}
	pcts("client.read_us", &byName[spRead], "us")
	pcts("client.readmulti_us", &byName[spReadMulti], "us")
	pcts("client.scan_page_us", &scanPage, "us")

	// Network and Paxos message volume.
	var handled, paxosMsgs int64
	for i := range b.handled {
		handled += b.handled[i] - a.handled[i]
	}
	for _, k := range []uint8{kindCode("prepare"), kindCode("accept"), kindCode("apply")} {
		paxosMsgs += 2 * (b.handled[k] - a.handled[k]) // request + reply
	}
	msgs, msgsBase := float64(2*handled), "handler requests+replies"
	if p.d.sim != nil {
		msgs, msgsBase = float64(b.simSent-a.simSent), "sim messages"
	}
	out = append(out,
		metric{"network.msgs_per_commit", ratio(msgs, c), "count", fmt.Sprintf("%.0f %s %s", msgs, msgsBase, baseC)},
		metric{"paxos.msgs_per_commit", ratio(float64(paxosMsgs), rw), "count", fmt.Sprintf("%d %s", paxosMsgs, baseRW)},
	)
	for i, k := range kinds {
		pcts("network.rpc_us."+string(k), &rpc[i], "us")
	}
	out = append(out,
		metric{"network.timeouts", float64(b.timeouts - a.timeouts), "count", "in window"},
		metric{"network.max_msg_bytes", float64(p.tr.maxMsgBytes.Load()), "B", "largest reply on the wire, whole run"},
	)

	// Service dispatch.
	for i, k := range kinds {
		pcts("service.busy_us."+string(k), &busy[i], "us")
	}
	out = append(out, metric{"service.inflight_max", float64(p.tr.inflightMax.Load()), "count", "whole run"})

	// Replicated log, WAL encoding, store, disk.
	var positions int64
	for g, v := range b.applied {
		positions += v - a.applied[g]
	}
	rows := float64(b.scanRows - a.scanRows)
	out = append(out,
		metric{"replog.txns_per_entry", ratio(rw, float64(positions)), "ratio", fmt.Sprintf("%d read-write commits / %d positions", rwCommits, positions)},
		metric{"replog.apply_lag_max", float64(p.lagMax.Load()), "count", "sampled every 5 ms"},
		metric{"wal.entry_bytes_per_commit", ratio(float64(p.entryBytes), rw), "B", fmt.Sprintf("%d B %s", p.entryBytes, baseRW)},
		metric{"kvstore.scan_examined_per_row", ratio(float64(b.examined-a.examined), rows), "ratio", fmt.Sprintf("%d examined / %.0f rows", b.examined-a.examined, rows)},
		metric{"disk.fsyncs_per_commit", ratio(float64(b.fsyncs-a.fsyncs), rw), "count", fmt.Sprintf("%d fsyncs %s", b.fsyncs-a.fsyncs, baseRW)},
	)
	pcts("disk.fsync_us", &fsync, "us")
	out = append(out, metric{"disk.wal_bytes_per_commit", ratio(float64(b.walBytes-a.walBytes), rw), "B", fmt.Sprintf("%d B %s", b.walBytes-a.walBytes, baseRW)})

	// Catch-up transfer, per rejoin in the window.
	nc := float64(len(p.cycles))
	out = append(out,
		metric{"catchup.transfer_msgs", ratio(float64(b.transferN-a.transferN), nc), "count", fmt.Sprintf("per rejoin, %d rejoins", len(p.cycles))},
		metric{"catchup.transfer_bytes", ratio(float64(b.transferB-a.transferB), nc), "B", fmt.Sprintf("per rejoin, %d rejoins", len(p.cycles))},
	)

	// Process.
	out = append(out,
		metric{"proc.gc_pause_ms", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6, "ms", "in window"},
		metric{"proc.goroutines_max", float64(p.goroutinesMax.Load()), "count", "sampled every 5 ms"},
	)

	// Self time per span.
	for i := uint8(0); i < numSpanNames; i++ {
		out = append(out, metric{"self_us." + spanNames[i] + ".p50", self[i].pct(50), "us", fmt.Sprintf("n=%d", self[i].n())})
	}
	ok, total, uncovered := tree.reconcileWindow(lo, hi)
	out = append(out,
		metric{"trace.reconciled_fraction", ratio(float64(ok), float64(total)), "ratio", fmt.Sprintf("%d / %d transactions", ok, total)},
		metric{"trace.uncovered_us.p50", uncovered.pct(50), "us", fmt.Sprintf("n=%d", uncovered.n())},
		metric{"trace.uncovered_us.p99", uncovered.pct(99), "us", fmt.Sprintf("n=%d", uncovered.n())},
		metric{"trace.spans", float64(len(spans)), "count", "whole run"},
	)
	return out
}
