package main

import (
	"testing"
)

// tinyRun runs one workload at its tiny size for a fixed number of rounds.
func tinyRun(t *testing.T, w workload, seed int64) *recorder {
	t.Helper()
	rec := newRecorder()
	cfg := runConfig{
		seed:   seed,
		rounds: 2,
		tiny:   true,
		logf:   t.Logf,
	}
	if err := w.run(cfg, rec); err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return rec
}

// TestWorkloadsTiny runs every workload at a tiny size with every check on
// and requires that no operation fails.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rec := tinyRun(t, w, 7)
			if rec.attempted == 0 || rec.failed != 0 {
				t.Fatalf("attempted %d, failed %d", rec.attempted, rec.failed)
			}
			if w.name == "ground-spill" && rec.layer("pl.spilled_partitions") == 0 {
				t.Errorf("nothing spilled")
			}
			e2e := rec.endToEnd(w.tail)
			for name := range e2e {
				if !(e2e[name] > 0) {
					t.Errorf("%s = %v, want > 0", name, e2e[name])
				}
			}
		})
	}
}

// deterministicCounters are the per-layer counters that depend only on the
// inputs: with one client and a fixed seed they must repeat exactly.
var deterministicCounters = []string{
	"engine.offending_tuples",
	"aonet.network_nodes",
	"lineage.clauses",
	"engine.rows_charged",
	"lineage.circuit_compiles",
	"pdb.refreshes_patched",
	"pdb.refreshes_recomputed",
}

// TestCountersRepeat runs each single-client workload twice in this process
// with the same seed and requires the deterministic counters to agree
// exactly. serve-mixed is left out: its two clients interleave differently
// on every run, which moves cache hits and so every counter of a miss.
func TestCountersRepeat(t *testing.T) {
	for _, w := range workloads {
		if w.name == "serve-mixed" {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			a, b := tinyRun(t, w, 11), tinyRun(t, w, 11)
			seen := 0
			for _, name := range deterministicCounters {
				x, y := a.layers[name], b.layers[name]
				if (x == nil) != (y == nil) || (x != nil && *x != *y) {
					t.Errorf("%s: first run %+v, second %+v", name, x, y)
				}
				if x != nil && x.num > 0 {
					seen++
				}
			}
			if seen == 0 {
				t.Errorf("no deterministic counter moved")
			}
		})
	}
}

// TestQuartiles pins compare mode's quartiles to Python's
// statistics.quantiles(range(1, 11), n=4) and its median.
func TestQuartiles(t *testing.T) {
	var v []float64
	for i := 1; i <= 10; i++ {
		v = append(v, float64(i))
	}
	q1, med, q3 := quartiles(v)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
