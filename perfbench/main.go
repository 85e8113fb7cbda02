// Command perfbench is the repository's benchmark: one closed-loop
// workload per run against a deployment built from the same constructors
// cmd/txkvd uses, with every run gated on the one-copy-serializability
// checker, replica convergence and (where the workload has one) a
// power-failure durability check.
//
//	go run . --workload cp-wan --seed 1 --seconds 15 --trace 0
//
// run.sh builds it from source inside the checkout and runs it from the
// checkout root; BENCHMARK.json names the workloads and metrics.
//
// With --trace 0 the run measures the end-to-end metrics untraced. With
// --trace 1 it runs the workload twice, untraced then traced, and reports
// the per-layer metrics from the traced run, the tracing overhead (the gap
// between the two runs' end-to-end values) and whether each transaction's
// child spans reconcile with its root span. The traced run writes its
// spans to .bench_build/traces/<workload>.spans.tsv.gz.
//
// Every line but the last is for people: provenance, then each metric with
// its unit and the base it came from. The last line is one JSON object.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// e2eGated are the end-to-end metrics BENCHMARK.json gates: the ones every
// workload exercises and that hold steady run to run. The tail percentile
// gated is p80: p99 over a 15 s window moved by more than half between
// runs of the same code on cp-wan and udp-disk.
var e2eGated = []string{
	"setup_s", "goodput_tps", "commit_fraction", "txn_p50_ms", "txn_p80_ms",
	"cpu_ms_per_commit", "alloc_kb_per_commit", "heap_live_mb",
}

// e2eUngated are printed with every run and reported, ungated, by the
// traced run.
var e2eUngated = []string{"txn_p99_ms", "ro_p50_ms", "ro_p99_ms", "catchup_s"}

// deadline bounds a whole run, so a wedged deployment fails the run
// instead of hanging it.
const deadline = 170 * time.Second

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`

	e2e []metric // every end-to-end metric of the untraced run, gated or not
}

func main() {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 15, "length of the measured window")
	trace := flag.Int("trace", 0, "1: also run traced and report per-layer metrics")
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>\n")
		os.Exit(2)
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: run exceeded %v\n", deadline)
		os.Exit(3)
	})
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s seed %d: %v\n", w.Name, *seed, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// provenance is printed first on every run.
type provenance struct {
	Workload   *workload `json:"workload"`
	Protocol   string    `json:"protocol"`
	Loop       string    `json:"loop"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Warmup     float64   `json:"warmup_seconds"`
	Traced     bool      `json:"traced"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Platform   string    `json:"platform"`
}

func run(w *workload, seed int64, seconds time.Duration, traced bool) (*result, error) {
	prov, _ := json.Marshal(provenance{
		Workload: w, Protocol: w.Protocol.String(), Loop: "closed", Seed: seed, Seconds: seconds.Seconds(), Warmup: warmup.Seconds(), Traced: traced,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
	})
	fmt.Printf("# provenance %s\n", prov)
	ctx := context.Background()

	plain := &phase{w: w, seed: seed, seconds: seconds}
	if err := plain.run(ctx); err != nil {
		return nil, err
	}
	e2e := plain.e2e()
	printMetrics("end-to-end (untraced)", e2e)
	res := &result{Correct: true, Metrics: map[string]jsonMetric{}, e2e: e2e}
	res.Attempted, res.Failed = plain.counts()
	if !traced {
		for _, m := range pick(e2e, e2eGated) {
			res.Metrics[m.name] = jsonMetric{m.value, m.unit}
		}
		return res, nil
	}

	tp := &phase{w: w, seed: seed, seconds: seconds, traced: true}
	if err := tp.run(ctx); err != nil {
		return nil, fmt.Errorf("traced: %w", err)
	}
	a, f := tp.counts()
	res.Attempted += a
	res.Failed += f
	layers := tp.perLayer()
	printMetrics("per-layer (traced)", layers)
	tracedE2E := tp.e2e()
	var extra []metric
	for _, m := range pick(tracedE2E, e2eGated) {
		if m.name == "setup_s" {
			continue
		}
		base := pick(e2e, []string{m.name})[0]
		extra = append(extra, metric{
			"trace.overhead." + m.name, ratio(m.value-base.value, base.value), "ratio",
			fmt.Sprintf("traced %g vs untraced %g", m.value, base.value),
		})
	}
	extra = append(extra, pick(e2e, e2eUngated)...)
	printMetrics("tracing overhead and workload-specific end-to-end (untraced)", extra)

	rec := pick(layers, []string{"trace.reconciled_fraction"})[0]
	fmt.Printf("# reconciliation: %s have child spans covering the root within %.0f%% + %v (need %.0f%%)\n",
		rec.base, reconcileSlack*100, reconcileFloor, reconcileMin*100)
	if rec.value < reconcileMin {
		return nil, fmt.Errorf("traced: child spans do not reconcile with transaction roots: %s", rec.base)
	}
	if err := os.MkdirAll(filepath.Join(".bench_build", "traces"), 0o755); err == nil {
		path := filepath.Join(".bench_build", "traces", w.Name+".spans.tsv.gz")
		if err := tp.tr.writeSpans(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		} else {
			fmt.Printf("# spans written to %s\n", path)
		}
	}
	for _, m := range append(layers, extra...) {
		res.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	return res, nil
}

// pick returns the named metrics in the order named.
func pick(ms []metric, names []string) []metric {
	var out []metric
	for _, n := range names {
		for _, m := range ms {
			if m.name == n {
				out = append(out, m)
			}
		}
	}
	return out
}

func printMetrics(title string, ms []metric) {
	fmt.Printf("# %s\n", title)
	for _, m := range ms {
		fmt.Printf("%-40s %14.6g %-6s  (%s)\n", m.name, m.value, m.unit, m.base)
	}
}
