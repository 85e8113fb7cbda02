package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"paxoscp/internal/cluster"
	"paxoscp/internal/core"
	"paxoscp/internal/history"
	"paxoscp/internal/kvstore"
	"paxoscp/internal/kvstore/disk"
	"paxoscp/internal/network"
	"paxoscp/internal/placement"
	"paxoscp/internal/stats"
	"paxoscp/internal/wal"
	"paxoscp/internal/ycsb"
)

// deployment is one running multi-datacenter deployment, wired from the
// constructors cmd/txkvd uses (core.NewService over a network.Sim or
// network.UDP endpoint, disk.Open for durable replicas) so the benchmark
// owns the two seams every message crosses: the Transport a client or
// service sends through, and each service's AsyncHandler.
type deployment struct {
	w      *workload
	tr     *tracer // nil when untraced
	dcs    []string
	groups []string

	sim  *network.Sim
	udps map[string]*network.UDP // service sockets (udp transport)
	dir  string                  // disk engines' root (disk engine)

	// mu guards the replica maps, which a crash swaps at runtime. A nil
	// service drops its messages, as a killed process does.
	mu       sync.RWMutex
	svcs     map[string]*core.Service
	handlers map[string]network.AsyncHandler
	stores   map[string]*kvstore.Store
	engines  map[string]*disk.Engine
	svcTrans map[string]network.Transport // untraced endpoints, by datacenter

	clientUDPs []*network.UDP
	nextClient int
	rec        history.Recorder
	// archive holds log entries scavenged by compaction, so the checker
	// still sees the whole serial history.
	archive map[string]map[int64]wal.Entry
}

// deploy builds and starts the workload's deployment. dir is a fresh
// directory for disk engines; seed drives the simulated network.
func deploy(w *workload, tr *tracer, dir string, seed int64) (*deployment, error) {
	topo, err := cluster.PaperTopology(w.Topology)
	if err != nil {
		return nil, err
	}
	d := &deployment{
		w: w, tr: tr, dcs: topo.DCs(), groups: placement.GroupNames(w.Groups), dir: dir,
		udps: map[string]*network.UDP{}, svcs: map[string]*core.Service{},
		handlers: map[string]network.AsyncHandler{}, stores: map[string]*kvstore.Store{},
		engines: map[string]*disk.Engine{}, svcTrans: map[string]network.Transport{},
		archive: map[string]map[int64]wal.Entry{},
	}
	if tr != nil {
		tr.dcs = d.dcs
	}
	var peers map[string]string
	switch w.Transport {
	case "sim":
		d.sim = network.NewSim(topo, network.SimConfig{Scale: w.Scale, Jitter: w.Jitter, Seed: seed*7919 + 1})
		for _, dc := range d.dcs {
			d.svcTrans[dc] = d.sim.EndpointAsync(dc, d.dispatch(dc))
		}
	case "udp":
		peers = map[string]string{}
		for _, dc := range d.dcs {
			u, err := network.NewUDPAsync(dc, "127.0.0.1:0", nil, d.dispatch(dc))
			if err != nil {
				d.close()
				return nil, err
			}
			d.udps[dc] = u
			d.svcTrans[dc] = u
			peers[dc] = u.LocalAddr()
		}
		for _, u := range d.udps {
			for dc, addr := range peers {
				if err := u.SetPeer(dc, addr); err != nil {
					d.close()
					return nil, err
				}
			}
		}
	default:
		return nil, fmt.Errorf("unknown transport %q", w.Transport)
	}
	for _, dc := range d.dcs {
		if err := d.start(dc); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

// dispatch is the handler registered for dc: it resolves the current
// service on every message, so a crash (nil: drop) and a reopen take
// effect without re-registering.
func (d *deployment) dispatch(dc string) network.AsyncHandler {
	return func(from string, req network.Message, reply func(network.Message)) {
		d.mu.RLock()
		h := d.handlers[dc]
		d.mu.RUnlock()
		if h != nil {
			h(from, req, reply)
		}
	}
}

// segmentBytes sizes WAL segments so a run never rotates one: a rotation
// triggers an engine snapshot of the whole store, and whether one lands in
// the measured window moved goodput by 30% between runs.
const segmentBytes = 256 << 20

// start opens dc's store (recovering it from disk when durable) and
// builds its service.
func (d *deployment) start(dc string) error {
	store := kvstore.New()
	var engine *disk.Engine
	if d.w.Engine == "disk" {
		opts := disk.Options{Fsync: d.w.Fsync, FS: noFlushFS{disk.OSFS()}, SegmentBytes: segmentBytes}
		if d.tr != nil {
			opts.FS = timedFS{FS: opts.FS, t: d.tr, dc: dc}
		}
		var err error
		store, engine, err = disk.Open(filepath.Join(d.dir, dc), opts)
		if err != nil {
			return fmt.Errorf("open %s: %w", dc, err)
		}
	}
	tr := d.svcTrans[dc]
	if d.tr != nil {
		tr = tracedTransport{Transport: tr, t: d.tr, dc: dc}
	}
	svc := core.NewService(dc, store, tr, core.WithServiceTimeout(d.w.Timeout))
	svc.EnsureGroups(d.groups...)
	h := svc.AsyncHandler()
	if d.tr != nil {
		h = d.tr.handler(dc, h)
	}
	d.mu.Lock()
	d.svcs[dc], d.handlers[dc], d.stores[dc], d.engines[dc] = svc, h, store, engine
	d.mu.Unlock()
	return nil
}

func (d *deployment) svc(dc string) *core.Service {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.svcs[dc]
}

// masterOf is the group's master datacenter: the workload's fixed master,
// or the round-robin spread cluster.MasterOf uses.
func (d *deployment) masterOf(group string) string {
	if d.w.MasterDC != "" {
		return d.w.MasterDC
	}
	for i, g := range d.groups {
		if g == group {
			return d.dcs[i%len(d.dcs)]
		}
	}
	return d.dcs[0]
}

// newClient builds a Transaction Client local to dc whose commits are
// recorded for the checker. On the sim a client shares its datacenter's
// endpoint; over UDP it opens its own socket, as txkvctl does.
func (d *deployment) newClient(dc string, seed int64) (*core.Client, error) {
	id := d.nextClient
	d.nextClient++
	var tr network.Transport
	switch {
	case d.sim != nil:
		tr = d.svcTrans[dc]
	default:
		peers := map[string]string{}
		for name, u := range d.udps {
			peers[name] = u.LocalAddr()
		}
		u, err := network.NewUDP(dc+"-client-"+strconv.Itoa(id), "127.0.0.1:0", peers, nil)
		if err != nil {
			return nil, err
		}
		d.clientUDPs = append(d.clientUDPs, u)
		tr = u
	}
	if d.tr != nil {
		tr = tracedTransport{Transport: tr, t: d.tr, dc: dc}
	}
	c := core.NewClient(id, dc, tr, core.Config{
		Protocol: d.w.Protocol, Timeout: d.w.Timeout, Seed: seed*31 + int64(id) + 1,
		MasterDC: d.w.MasterDC, MasterFor: d.masterOf,
	})
	c.OnCommit = func(pos int64, txn core.CommittedTxn) {
		d.rec.Record(history.Commit{
			ID: txn.ID, Group: txn.Group, Origin: txn.Origin,
			ReadPos: txn.ReadPos, Pos: pos, Reads: txn.Reads, Writes: txn.Writes,
		})
	}
	return c, nil
}

// preload commits PreloadRows rows per group through the protocol, in
// PreloadBatch-row transactions.
func (d *deployment) preload(ctx context.Context, seed int64) error {
	c, err := d.newClient(d.dcs[0], seed)
	if err != nil {
		return err
	}
	for _, g := range d.groups {
		for base := 0; base < d.w.PreloadRows; base += d.w.PreloadBatch {
			tx, err := c.Begin(ctx, g)
			if err != nil {
				return err
			}
			for i := base; i < base+d.w.PreloadBatch && i < d.w.PreloadRows; i++ {
				tx.Write(ycsb.AttrName(i), "init-"+strconv.Itoa(i))
			}
			res, err := tx.Commit(ctx)
			if err != nil {
				return fmt.Errorf("preload %s: %w", g, err)
			}
			if res.Status != stats.Committed {
				return fmt.Errorf("preload %s: transaction %s", g, res.Status)
			}
		}
	}
	return nil
}

// crash power-fails dc's disk engine (unflushed writes are gone), tears
// the service down and drops its messages.
func (d *deployment) crash(dc string) error {
	d.mu.Lock()
	svc, store, eng := d.svcs[dc], d.stores[dc], d.engines[dc]
	d.svcs[dc], d.handlers[dc] = nil, nil
	d.mu.Unlock()
	if eng == nil {
		return fmt.Errorf("%s has no disk engine", dc)
	}
	eng.Crash()
	svc.Close()
	store.Close()
	return nil
}

// close stops everything the deployment started and waits for it.
func (d *deployment) close() {
	if d.sim != nil {
		d.sim.Close()
	}
	for _, u := range d.clientUDPs {
		u.Close()
	}
	for _, u := range d.udps {
		u.Close()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, s := range d.svcs {
		if s != nil {
			s.Close()
		}
	}
	for _, s := range d.stores {
		s.Close()
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}
