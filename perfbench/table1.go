package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/query"
	"repro/pdb"
)

// table1Cold loads one seeded Fig-5-style instance at a time and evaluates
// each Table 1 query on it once with partial lineage and once with DNF
// lineage, in a seeded order. Each load is set-up, and only the ten
// evaluations per instance are timed. Nothing repeats: every
// instance is new, so every evaluation plans, executes and infers cold.
func table1Cold(cfg runConfig, rec *recorder) error {
	sz := fig5{n: 20, m: 30, fanout: 4}
	if cfg.tiny {
		sz = fig5{n: 4, m: 8, fanout: 3}
	}
	qs, err := parseTable1()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	strategies := []pdb.Strategy{pdb.PartialLineage, pdb.DNFLineage}
	for round := 0; cfg.more(rec, round); round++ {
		// A round is one instance at r_f 1% and one at 5%, in a seeded
		// order, so every round has the same make-up. Above 5%, single DNF
		// evaluations of S3 run for tens of seconds.
		rfs := []float64{0.01, 0.05}
		if rng.Intn(2) == 1 {
			rfs[0], rfs[1] = rfs[1], rfs[0]
		}
		for _, rf := range rfs {
			inst := sz
			inst.rf = rf
			if err := table1Instance(cfg, rec, rng, inst, qs, strategies); err != nil {
				return err
			}
		}
		rec.roundDone()
	}
	return nil
}

// table1Instance loads one instance, times the ten evaluations and checks
// them.
func table1Instance(cfg runConfig, rec *recorder, rng *rand.Rand, inst fig5, qs []parsedQuery, strategies []pdb.Strategy) error {
	instRNG := rand.New(rand.NewSource(rng.Int63()))
	start := startSetup()
	tables := genTable1(instRNG, inst)
	db, loadTime, err := timedLoad(tables)
	if err != nil {
		return err
	}
	rec.setup(start)
	rec.mean("pdb.load_s", loadTime.Seconds())

	type result struct {
		res *pdb.Result
		d   time.Duration
		err error
	}
	results := make([][2]result, len(qs))
	order := rng.Perm(len(qs) * len(strategies))
	rec.begin()
	for _, k := range order {
		qi, si := k/len(strategies), k%len(strategies)
		t0 := time.Now()
		res, err := db.Evaluate(qs[qi].pq, pdb.Options{Strategy: strategies[si], Trace: cfg.trace})
		results[qi][si] = result{res, time.Since(t0), err}
	}
	rec.end()

	tw, err := twin(tables)
	if err != nil {
		return err
	}
	for qi, q := range qs {
		part, dnf := results[qi][0], results[qi][1]
		okPart, okDNF := part.err == nil, dnf.err == nil
		if okPart && okDNF {
			g, err := engine.Ground(tw, q.iq, q.plan)
			if err != nil {
				return fmt.Errorf("ground %s: %w", q.name, err)
			}
			if err := checkAgainstGrounding(part.res, dnf.res, g); err != nil {
				cfg.logf("table1-cold %s rf=%.2f: %v", q.name, inst.rf, err)
				rec.mismatch()
				rec.mismatch()
				okPart, okDNF = false, false
			}
		}
		for si, r := range []result{part, dnf} {
			if r.err != nil {
				cfg.logf("table1-cold %s %v: %v", q.name, strategies[si], r.err)
				continue
			}
			statsLayers(rec, r.res.Stats)
		}
		rec.op(part.d, okPart)
		rec.op(dnf.d, okDNF)
	}
	return nil
}

// timedLoad loads generated tables and times the load alone (the
// pdb.load_s layer metric).
func timedLoad(tables []table) (*pdb.Database, time.Duration, error) {
	t0 := time.Now()
	db, err := load(tables)
	return db, time.Since(t0), err
}

type parsedQuery struct {
	name string
	pq   *pdb.Query
	iq   *query.Query
	plan *query.Plan
}

func parseTable1() ([]parsedQuery, error) {
	var out []parsedQuery
	for _, t := range table1Queries {
		pq, err := pdb.ParseQuery(t.text)
		if err != nil {
			return nil, err
		}
		iq, err := query.Parse(t.text)
		if err != nil {
			return nil, err
		}
		plan, err := bodyPlan(iq)
		if err != nil {
			return nil, err
		}
		out = append(out, parsedQuery{t.name, pq, iq, plan})
	}
	return out, nil
}

// checkAgainstGrounding checks the two strategies' answers against each
// other within 1e-9 and each answer against its grounded lineage: with
// independent tuples, the probability of a DNF lies between its most
// probable clause and the sum of its clause probabilities (capped at 1).
// Both strategies must return exactly the grounded answer set.
func checkAgainstGrounding(part, dnf *pdb.Result, g *engine.Grounding) error {
	if len(part.Rows) != len(g.Answers) || len(dnf.Rows) != len(g.Answers) {
		return fmt.Errorf("answers: partial %d, dnf %d, grounded %d", len(part.Rows), len(dnf.Rows), len(g.Answers))
	}
	for _, a := range g.Answers {
		lo, hi := 0.0, 0.0
		for _, c := range a.F.Clauses {
			p := 1.0
			for _, v := range c {
				p *= g.Probs[v]
			}
			lo = math.Max(lo, p)
			hi += p
		}
		hi = math.Min(1, hi)
		pp, pd := part.Prob(a.Vals...), dnf.Prob(a.Vals...)
		if math.Abs(pp-pd) > tol {
			return fmt.Errorf("answer %v: partial %v, dnf %v", a.Vals, pp, pd)
		}
		for _, p := range []float64{pp, pd} {
			if p < lo-tol || p > hi+tol {
				return fmt.Errorf("answer %v: %v outside derivation bounds [%v, %v]", a.Vals, p, lo, hi)
			}
		}
	}
	return nil
}

// tol is the agreement tolerance of every check. Plans that join in
// different orders add the same products in a different order, so equal
// answers may differ in the last bit.
const tol = 1e-9

// statsLayers folds one evaluation's statistics into the per-layer metrics.
func statsLayers(rec *recorder, st pdb.Stats) {
	rec.mean("planner.select_ms", ms(st.PlanSelectTime))
	rec.mean("planner.candidates", float64(st.PlanCandidates))
	rec.mean("engine.exec_ms", ms(st.PlanTime))
	rec.mean("engine.rows_charged", float64(st.RowsCharged))
	rec.mean("engine.offending_tuples", float64(st.OffendingTuples))
	rec.mean("aonet.network_nodes", float64(st.NetworkNodes))
	rec.mean("aonet.cons_hits", float64(st.ConsHits))
	rec.mean("lineage.clauses", float64(st.LineageClauses))
	rec.ratio("lineage.memo_hit_ratio", float64(st.MemoHits), float64(st.MemoHits+st.MemoMisses))
	rec.mean("inference.time_ms", ms(st.InferenceTime))
	fallbacks := 0
	for _, n := range st.BackendFallbacks {
		fallbacks += n
	}
	rec.mean("inference.backend_fallbacks", float64(fallbacks))
	rec.mean("lineage.circuit_compiles", float64(st.CircuitCompiles))
	rec.ratio("lineage.circuit_hit_ratio", float64(st.CircuitHits), float64(st.CircuitHits+st.CircuitCompiles))
	rec.mean("pl.spilled_partitions", float64(st.SpilledPartitions))
	rec.mean("pl.spill_kb", float64(st.SpillBytes)/1024)
	rec.mean("pl.mem_peak_kb", float64(st.MemPeakBytes)/1024)
	var scan, join, project, spill time.Duration
	for _, op := range st.Operators {
		switch op.Kind {
		case "scan":
			scan += op.Time
		case "join":
			join += op.Time
		case "project":
			project += op.Time
		case "join.spill", "project.spill":
			spill += op.Time
		}
	}
	if len(st.Operators) > 0 {
		rec.mean("engine.scan_ms", ms(scan))
		rec.mean("engine.join_ms", ms(join))
		rec.mean("engine.project_ms", ms(project))
		rec.mean("pl.spill_ms", ms(spill))
	}
}
