package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/pdb"
)

// triangleQuery's per-answer lineage R(g,x) ∧ T(x,y) ∧ S(g,y) is not
// read-once, so every answer needs real Shannon expansion, and T is shared
// by every answer.
const triangleQuery = "q(g) :- R(g, x), T(x, y), S(g, y)"

// viewRefresh alternates a write and Materialized.Refresh, then reads the
// answers, on a DNF-strategy view over the triangle join. A round is twenty
// operations in a seeded order: fourteen prob-updates of one R or S tuple
// (one answer dirty), five prob-updates of a T tuple (every answer dirty)
// and one delete and reinsert of a tuple (a structural change). Views keep
// a fixed plan, so the planner does no work here. The answers read after
// every operation are compared with a fresh evaluation of the view query in
// the same state, made on a twin database after the round.
func viewRefresh(cfg runConfig, rec *recorder) error {
	groups, fanout := 30, 6
	if cfg.tiny {
		groups, fanout = 4, 3
	}
	q, err := pdb.ParseQuery(triangleQuery)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))

	var (
		tables []table
		db     *pdb.Database
		view   *pdb.Materialized
	)
	for i := 0; i < setupRepeats; i++ {
		tables, db, view = nil, nil, nil
		settle()
		start := startSetup()
		tables = genTriangle(rand.New(rand.NewSource(cfg.seed)), groups, fanout)
		var loadTime time.Duration
		db, loadTime, err = timedLoad(tables)
		if err != nil {
			return err
		}
		view, err = db.Materialize(q, pdb.Options{Strategy: pdb.DNFLineage, Trace: cfg.trace})
		if err != nil {
			return err
		}
		rec.setup(start)
		rec.mean("pdb.load_s", loadTime.Seconds())
	}
	rels := make(map[string]*pdb.Relation)
	rows := make(map[string][]genRow)
	for _, t := range tables {
		if rels[t.name], err = db.Relation(t.name); err != nil {
			return err
		}
		rows[t.name] = t.rows
	}
	const (
		opLocal = iota
		opShared
		opStructural
	)
	var round []int
	for i := 0; i < 14; i++ {
		round = append(round, opLocal)
	}
	for i := 0; i < 5; i++ {
		round = append(round, opShared)
	}
	round = append(round, opStructural)
	twinDB, err := load(tables)
	if err != nil {
		return err
	}
	circuitsBefore := view.CircuitStats()

	type opRecord struct {
		kind      int
		name      string
		row       *genRow
		vals      []pdb.Value
		p         float64
		d, write  time.Duration
		refreshed pdb.RefreshKind
		answers   *pdb.Result
		ok        bool
	}
	ops := make([]opRecord, len(round))
	for r := 0; cfg.more(rec, r); r++ {
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		for i, kind := range round {
			name := "T"
			switch kind {
			case opLocal:
				name = []string{"R", "S"}[rng.Intn(2)]
			case opStructural:
				name = []string{"R", "S", "T"}[rng.Intn(3)]
			}
			row := &rows[name][rng.Intn(len(rows[name]))]
			ops[i] = opRecord{kind: kind, name: name, row: row, vals: ints(row.vals), p: 0.05 + 0.9*rng.Float64()}
			if kind == opStructural {
				// The reinserted tuple keeps its current probability.
				ops[i].p = row.p
			}
		}

		rec.begin()
		for i := range ops {
			o := &ops[i]
			t0 := time.Now()
			var werr error
			if o.kind == opStructural {
				// Delete and reinsert moves the tuple to the end of its
				// relation: a structural change.
				if werr = rels[o.name].Delete(o.vals...); werr == nil {
					werr = rels[o.name].Add(o.p, o.vals...)
				}
			} else {
				werr = rels[o.name].SetProb(o.p, o.vals...)
			}
			o.write = time.Since(t0)
			var rerr error
			o.refreshed, rerr = view.Refresh()
			o.answers = view.Result()
			o.d = time.Since(t0)
			o.ok = werr == nil && rerr == nil
			if !o.ok {
				cfg.logf("view-refresh write %v, refresh %v", werr, rerr)
			}
		}
		rec.end()

		// Replay the round on the twin, comparing after every operation.
		for i := range ops {
			o := &ops[i]
			if o.ok {
				if err := applyWrite(twinDB, o.kind == opStructural, o.name, o.vals, o.p); err != nil {
					return err
				}
				if err := checkView(twinDB, q, o.answers); err != nil {
					cfg.logf("view-refresh after %s write to %s: %v", o.refreshed, o.name, err)
					rec.mismatch()
					o.ok = false
				}
			}
			o.row.p = o.p
			rec.op(o.d, o.ok)
			writes := 1.0
			if o.kind == opStructural {
				writes = 2
			}
			rec.ratio("pdb.write_us", float64(o.write)/float64(time.Microsecond), writes)
			switch o.refreshed {
			case pdb.RefreshPatched:
				rec.mean("pdb.refresh_patched_ms", ms(o.d-o.write))
			case pdb.RefreshRecomputed:
				rec.mean("pdb.refresh_recomputed_ms", ms(o.d-o.write))
			}
			rec.mean("pdb.refreshes_patched", b2f(o.refreshed == pdb.RefreshPatched))
			rec.mean("pdb.refreshes_recomputed", b2f(o.refreshed == pdb.RefreshRecomputed))
		}
		rec.roundDone()
	}
	after := view.CircuitStats()
	compiles, hits := after.Compiles-circuitsBefore.Compiles, after.Hits-circuitsBefore.Hits
	rec.ratio("lineage.circuit_compiles", float64(compiles), float64(rec.attempted))
	rec.ratio("lineage.circuit_hit_ratio", float64(hits), float64(hits+compiles))
	return nil
}

// checkView compares the view's answers with a fresh evaluation of its
// query on the twin, which holds the same state and shares no cache with
// the view. The fresh evaluation plans its own join order, so answers may
// differ in the last bit.
func checkView(twinDB *pdb.Database, q *pdb.Query, got *pdb.Result) error {
	fresh, err := twinDB.Evaluate(q, pdb.Options{Strategy: pdb.DNFLineage})
	if err != nil {
		return fmt.Errorf("fresh evaluation: %w", err)
	}
	if len(got.Rows) != len(fresh.Rows) {
		return fmt.Errorf("%d answers, fresh evaluation %d", len(got.Rows), len(fresh.Rows))
	}
	for _, row := range got.Rows {
		if want := fresh.Prob(row.Vals...); !(math.Abs(row.P-want) <= tol) {
			return fmt.Errorf("answer %v: view %v, fresh %v", row.Vals, row.P, want)
		}
	}
	return nil
}

// applyWrite applies one view-refresh write to the twin.
func applyWrite(db *pdb.Database, structural bool, name string, vals []pdb.Value, p float64) error {
	rel, err := db.Relation(name)
	if err != nil {
		return err
	}
	if structural {
		if err := rel.Delete(vals...); err != nil {
			return fmt.Errorf("twin delete: %w", err)
		}
		return rel.Add(p, vals...)
	}
	return rel.SetProb(p, vals...)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// genTriangle generates the triangle instance: per group g, R(g, x) and
// S(g, y) for x, y in 1..fanout, and a shared T(x, y) grid. Probabilities
// are uniform in [0.05, 0.95].
func genTriangle(rng *rand.Rand, groups, fanout int) []table {
	prob := func() float64 { return 0.05 + 0.9*rng.Float64() }
	r := table{name: "R", attrs: []string{"g", "x"}}
	s := table{name: "S", attrs: []string{"g", "y"}}
	t := table{name: "T", attrs: []string{"x", "y"}}
	for x := 1; x <= fanout; x++ {
		for y := 1; y <= fanout; y++ {
			t.rows = append(t.rows, genRow{[]int64{int64(x), int64(y)}, prob()})
		}
	}
	for g := 1; g <= groups; g++ {
		for i := 1; i <= fanout; i++ {
			r.rows = append(r.rows, genRow{[]int64{int64(g), int64(i)}, prob()})
			s.rows = append(s.rows, genRow{[]int64{int64(g), int64(i)}, prob()})
		}
	}
	return []table{r, s, t}
}
