package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/pdb"
)

// spillBudget is the fixed operator-memory budget of ground-spill, in
// bytes. With no budget to stop them, the Table 1 queries on these
// instances charge an operator peak of 230–320 KiB, so every query spills.
// Budgets of 32 KiB and below make the number of spilled partitions swing
// by a factor of four between instances of the same size (and not
// monotonically with the budget), which no run of a few seconds averages
// out; at 64 KiB it stays within 36–48 per query.
const spillBudget = 64 << 10

// groundSpill loads one larger Fig-5-style instance at a time and evaluates
// each Table 1 query on it with partial lineage under the fixed memory
// budget, in a seeded order, so join and dedup partitions spill to temp
// files through the partition codec. A round is one instance. After the
// timed evaluations each query is evaluated again without a budget, and
// the budgeted answers must be bit-identical to it.
func groundSpill(cfg runConfig, rec *recorder) error {
	sz, budget := fig5{n: 10, m: 300, fanout: 4, rf: 0.01}, int64(spillBudget)
	if cfg.tiny {
		sz, budget = fig5{n: 3, m: 30, fanout: 3, rf: 0.01}, 2<<10
	}
	qs, err := parseTable1()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	opts := pdb.Options{Budget: pdb.Budget{Mem: budget}, Trace: cfg.trace}
	for round := 0; cfg.more(rec, round); round++ {
		instRNG := rand.New(rand.NewSource(rng.Int63()))
		start := startSetup()
		tables := genTable1(instRNG, sz)
		db, loadTime, err := timedLoad(tables)
		if err != nil {
			return err
		}
		rec.setup(start)
		rec.mean("pdb.load_s", loadTime.Seconds())

		results := make([]*pdb.Result, len(qs))
		errs := make([]error, len(qs))
		lat := make([]time.Duration, len(qs))
		rec.begin()
		for _, qi := range rng.Perm(len(qs)) {
			t0 := time.Now()
			results[qi], errs[qi] = db.Evaluate(qs[qi].pq, opts)
			lat[qi] = time.Since(t0)
		}
		rec.end()

		for qi, q := range qs {
			ok := errs[qi] == nil
			if !ok {
				cfg.logf("ground-spill %s: %v", q.name, errs[qi])
			} else {
				statsLayers(rec, results[qi].Stats)
				ref, err := db.Evaluate(q.pq, pdb.Options{})
				if err != nil {
					return fmt.Errorf("unbudgeted %s: %w", q.name, err)
				}
				if err := bitIdentical(results[qi], ref); err != nil {
					cfg.logf("ground-spill %s: %v", q.name, err)
					rec.mismatch()
					ok = false
				}
			}
			rec.op(lat[qi], ok)
		}
		rec.roundDone()
	}
	return nil
}

// bitIdentical requires the same answers, in the same order, with the
// same probability bits.
func bitIdentical(got, want *pdb.Result) error {
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%d answers, unbudgeted %d", len(got.Rows), len(want.Rows))
	}
	for i, r := range got.Rows {
		w := want.Rows[i]
		if fmt.Sprint(r.Vals) != fmt.Sprint(w.Vals) || math.Float64bits(r.P) != math.Float64bits(w.P) {
			return fmt.Errorf("row %d: %v %v, unbudgeted %v %v", i, r.Vals, r.P, w.Vals, w.P)
		}
	}
	return nil
}
