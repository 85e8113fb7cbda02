package main

import (
	"time"

	"paxoscp/internal/core"
	"paxoscp/internal/kvstore/disk"
	"paxoscp/internal/network"
	"paxoscp/internal/ycsb"
)

// workload is one deployment plus the closed-loop load driven against it.
// Every field is printed as the run's provenance.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	// Topology is the datacenter set in the paper's notation ("COV": one
	// each in California, Oregon, Virginia; "VVV": three Virginia zones).
	Topology string `json:"topology"`
	// Transport is "sim" (network.Sim) or "udp" (loopback UDP sockets).
	Transport string `json:"transport"`
	// Scale multiplies the paper's RTTs on the sim; 1e-6 makes delivery
	// effectively instant, so latency is processor time only.
	Scale   float64       `json:"sim_delay_scale,omitempty"`
	Jitter  float64       `json:"sim_jitter,omitempty"`
	Timeout time.Duration `json:"timeout_ns"`

	Protocol core.Protocol `json:"-"` // printed by name in the provenance
	// MasterDC names every group's master; empty spreads masterships over
	// the datacenters round-robin by group index.
	MasterDC string `json:"master_dc,omitempty"`
	Groups   int    `json:"groups"`
	// PreloadRows rows per group are committed through the protocol
	// during set-up, so the checker sees them in the log.
	PreloadRows int `json:"preload_rows_per_group"`
	// PreloadBatch rows go in each preload transaction.
	PreloadBatch int `json:"preload_rows_per_txn"`

	// Engine is "mem" or "disk"; Fsync is the disk engine's sync policy.
	// The disk engine writes its WAL and snapshot files to the real
	// filesystem through noFlushFS, which elides the device flush: on the
	// shared 2-vCPU machine the benchmark was built on, fsync-bound runs
	// of the same code ranged from 350 to 880 commits/s minutes apart,
	// which no bound of 25% can gate.
	Engine string          `json:"engine"`
	Fsync  disk.SyncPolicy `json:"fsync,omitempty"`

	// Clients lists each closed-loop client's datacenter.
	Clients []string `json:"client_dcs"`
	// BatchReads issues each run of consecutive reads as one ReadMulti.
	BatchReads bool          `json:"batch_reads"`
	Mix        ycsb.Workload `json:"mix"`

	// Outages runs catch-up cycles (take Victim down, write, compact the
	// others, bring it back, CatchUp) alongside the foreground load.
	Outages bool   `json:"outage_cycles"`
	Victim  string `json:"victim,omitempty"`
	// Down is how long the victim stays down per cycle.
	Down time.Duration `json:"down_ns,omitempty"`
	// CompactMargin keeps the compaction horizon this many positions under
	// the watermark, so the foreground transaction's read position is
	// never scavenged mid-transaction.
	CompactMargin int64 `json:"compact_margin,omitempty"`

	// Crash power-fails this replica after the run and checks that
	// nothing it acknowledged is lost.
	Crash string `json:"crash_after_run,omitempty"`
}

// paperScale compresses the paper's RTTs and its 2 s loss-detection
// timeout by 15×, as the repository's figures do.
const paperScale = 1.0 / 15

var workloads = []*workload{
	{
		Name:     "cp-wan",
		Why:      "Paper's experiment: sim COV, RTTs/15, jitter 0.1, timeout 2s/15, memory, Paxos-CP, 1 group; 2 closed-loop clients (C,O); 10 ops, 50% reads. WAN rounds dominate; CPU changes should not move it.",
		Topology: "COV", Transport: "sim", Scale: paperScale, Jitter: 0.1,
		Timeout:  network.DefaultTimeout / 15,
		Protocol: core.CP, Groups: 1,
		PreloadRows: 100, PreloadBatch: 100,
		Engine: "mem", Clients: []string{"C", "O"},
		Mix: ycsb.Workload{Attributes: 100, OpsPerTxn: 10, ReadFraction: 0.5, Distribution: ycsb.Uniform},
	},
	{
		Name:     "mem-mixed",
		Why:      "CPU path: sim VVV, delay ~0, memory, Master, 4 groups x 1000 rows; 2 closed-loop clients; 8 ops zipfian, 90% reads as ReadMulti, 5% scans <=50 rows. Client, dispatch, pipeline, replog, kvstore.",
		Topology: "VVV", Transport: "sim", Scale: 1e-6, Timeout: 500 * time.Millisecond,
		Protocol: core.Master, Groups: 4,
		PreloadRows: 1000, PreloadBatch: 100,
		Engine: "mem", Clients: []string{"V1", "V2"}, BatchReads: true,
		Mix: ycsb.Workload{
			Attributes: 1000, OpsPerTxn: 8, ScanFraction: 0.05, MaxScanLen: 50,
			ReadFraction: 0.90 / 0.95, Distribution: ycsb.Zipfian,
		},
	},
	{
		Name:     "udp-disk",
		Why:      "txkvd shape: 3 services on loopback UDP, disk engine fsync=batch (device flush elided), Master V1, 10k rows; 2 closed-loop clients; 4 ops, 25% reads. Codec, sockets, WAL, group commit, power-fail.",
		Topology: "VVV", Transport: "udp", Timeout: 500 * time.Millisecond,
		Protocol: core.Master, MasterDC: "V1", Groups: 1,
		PreloadRows: 10000, PreloadBatch: 250,
		Engine: "disk", Fsync: disk.SyncBatch, Clients: []string{"V1", "V1"},
		Mix:   ycsb.Workload{Attributes: 10000, OpsPerTxn: 4, ReadFraction: 0.25, Distribution: ycsb.Uniform},
		Crash: "V1",
	},
	{
		Name:     "catchup",
		Why:      "State transfer: sim VVV, delay ~0, memory, Master V1, 20k rows; 1 closed-loop client while V3 cycles down, peers compact, V3 rejoins via snapshot CatchUp. Client counted during the fault.",
		Topology: "VVV", Transport: "sim", Scale: 1e-6, Timeout: network.DefaultTimeout,
		Protocol: core.Master, MasterDC: "V1", Groups: 1,
		PreloadRows: 20000, PreloadBatch: 1000,
		Engine: "mem", Clients: []string{"V1"}, BatchReads: true,
		Mix: ycsb.Workload{Attributes: 20000, OpsPerTxn: 4, ReadFraction: 0.5, Distribution: ycsb.Uniform},
		// The paper's 2 s timeout outlasts building and shipping a 20k-row
		// snapshot under load (about 0.5 s; over 1 s under the race
		// detector). The victim stays down past one timeout, which the
		// master's first fast round waits out before it falls back to
		// majority rounds and writes past the compaction margin.
		Outages: true, Victim: "V3", Down: 2200 * time.Millisecond, CompactMargin: 8,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}
