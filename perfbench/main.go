// Command perfbench is the repository's end-to-end benchmark. It runs one
// closed-loop workload in this process, driving the program only through
// its public entry points (package pdb, server.Server.ServeHTTP and
// pdb.Materialized), checks every answer (against its grounded lineage, a
// second strategy, a fresh evaluation on a twin database that shares no
// cache, or an evaluation without a memory budget), and prints one JSON
// result line last:
//
//	bash perfbench/run.sh --workload table1-cold --seed 1 --seconds 15 --trace 0
//
// An earlier line, "wall", carries the wall-clock figures. With --trace 1
// the run also switches on the program's operator trace and prints the
// per-layer metrics instead of the end-to-end ones. With --compare it reads
// two directories of saved run outputs and compares them; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// runConfig is what a workload needs to know about the run.
type runConfig struct {
	seed  int64
	dur   time.Duration // timed-phase length; rounds run until it is used up
	trace bool
	// rounds, when positive, runs exactly that many rounds instead of
	// running for dur (the fast test).
	rounds int
	// tiny shrinks every input (the fast test).
	tiny bool
	// logf reports a failed operation.
	logf func(format string, args ...any)
}

// more reports whether another round should start: whole rounds only, so
// every run attempts the same operations in the same proportions.
func (c runConfig) more(rec *recorder, round int) bool {
	if c.rounds > 0 {
		return round < c.rounds
	}
	return rec.elapsed() < c.dur
}

// workload is one closed-loop traffic mix.
type workload struct {
	name string
	// tail is the latency percentile reported as latency_tail_ms: one of
	// p90, p95 and p99 with at least ten samples beyond it at the operation
	// count a 15-second run reaches on a 2-vCPU host under heavy steal, the
	// highest whose ten-seed spread stayed within its bound (README.md).
	tail float64
	run  func(runConfig, *recorder) error
}

var workloads = []workload{
	{"table1-cold", 0.95, table1Cold},
	{"serve-mixed", 0.90, serveMixed},
	{"view-refresh", 0.99, viewRefresh},
	{"ground-spill", 0.90, groundSpill},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// endToEndUnits and layerUnits list the metrics of the result line, with
// their units; BENCHMARK.json names the same metrics. The end-to-end ones
// are counted in process CPU time and memory, which hypervisor steal does
// not reach; wallUnits lists the wall-clock figures every run prints on a
// line of their own (README.md says why they carry no bound).
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"cpu_ms_per_op": "ms",
	"peak_rss_mb":   "MiB",
}

var wallUnits = map[string]string{
	"setup_wall_s":    "s",
	"ops_per_s":       "1/s",
	"latency_p50_ms":  "ms",
	"latency_tail_ms": "ms",
}

var layerUnits = map[string]string{
	"planner.select_ms":            "ms",
	"planner.candidates":           "count",
	"engine.exec_ms":               "ms",
	"engine.scan_ms":               "ms",
	"engine.join_ms":               "ms",
	"engine.project_ms":            "ms",
	"engine.rows_charged":          "count",
	"engine.offending_tuples":      "count",
	"aonet.network_nodes":          "count",
	"aonet.cons_hits":              "count",
	"lineage.clauses":              "count",
	"lineage.memo_hit_ratio":       "ratio",
	"inference.time_ms":            "ms",
	"inference.backend_fallbacks":  "count",
	"lineage.circuit_compiles":     "count",
	"lineage.circuit_hit_ratio":    "ratio",
	"pl.spilled_partitions":        "count",
	"pl.spill_kb":                  "KiB",
	"pl.mem_peak_kb":               "KiB",
	"pl.spill_ms":                  "ms",
	"server.hit_ms":                "ms",
	"server.miss_ms":               "ms",
	"server.overhead_ms":           "ms",
	"server.cache_hit_ratio":       "ratio",
	"server.mutate_ms":             "ms",
	"pdb.refresh_patched_ms":       "ms",
	"pdb.refresh_recomputed_ms":    "ms",
	"pdb.refreshes_patched":        "count",
	"pdb.refreshes_recomputed":     "count",
	"pdb.write_us":                 "us",
	"pdb.load_s":                   "s",
	"runtime.alloc_kb_per_op":      "KiB",
	"runtime.gc_cpu_share":         "ratio",
	"runtime.mutex_wait_ms_per_op": "ms",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of every run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: table1-cold, serve-mixed, view-refresh or ground-spill")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	compare := flag.Bool("compare", false, "compare two directories of saved run outputs: --compare BASE CHANGE")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: --compare takes two directories")
			os.Exit(2)
		}
		if err := compareDirs(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{
		seed:  *seed,
		dur:   time.Duration(*seconds) * time.Second,
		trace: *trace == 1,
		logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "perfbench: failed: "+format+"\n", args...)
		},
	}
	host := startHost()
	rec := newRecorder()
	if err := w.run(cfg, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	hb := host.finish()
	header, _ := json.Marshal(map[string]any{"workload": w.name, "seed": *seed, "trace": *trace, "host": hb})
	fmt.Printf("run %s\n", header)

	e2e := rec.endToEnd(w.tail)
	res := result{
		Correct:   rec.wrong == 0,
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Metrics:   make(map[string]metricValue),
	}
	wall := make(map[string]metricValue)
	for name, unit := range wallUnits {
		wall[name] = metricValue{e2e[name], unit}
	}
	line, _ := json.Marshal(wall)
	fmt.Printf("wall %s\n", line)
	if cfg.trace {
		// The traced run's end-to-end figures, for the tracing overhead.
		line, _ := json.Marshal(e2e)
		fmt.Printf("traced_end_to_end %s\n", line)
		for name, unit := range layerUnits {
			res.Metrics[name] = metricValue{rec.layer(name), unit}
		}
	} else {
		for name, unit := range endToEndUnits {
			res.Metrics[name] = metricValue{e2e[name], unit}
		}
	}
	printLayerSummary(os.Stderr, rec)
	fmt.Fprintln(os.Stderr, rec.latencySummary())
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// printLayerSummary writes the non-zero per-layer metrics to w, sorted, for
// a reader of an untraced run.
func printLayerSummary(w io.Writer, rec *recorder) {
	var names []string
	for name := range layerUnits {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if v := rec.layer(name); v != 0 {
			fmt.Fprintf(w, "layer %-30s %12.4f %s\n", name, v, layerUnits[name])
		}
	}
}
