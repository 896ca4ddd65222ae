package main

import (
	"fmt"
	"math/rand"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/tuple"
	"repro/pdb"
)

// table is one generated relation, kept as plain rows so that the same
// instance can be loaded into the program under test and into a checking
// twin that shares nothing with it.
type table struct {
	name  string
	attrs []string
	rows  []genRow
}

type genRow struct {
	vals []int64
	p    float64
}

// fig5 sizes one instance of the paper's Section 6.1 generator: n answer
// groups, m tuples per group in every relation, fanout ≥ 2 for the rows
// that violate a functional dependency, and rf the share of such rows.
type fig5 struct {
	n, m, fanout int
	rf           float64
}

// table1Query is one query of the paper's Table 1.
type table1Query struct {
	name, text string
}

// table1Queries are the five Table 1 shapes (P1 is also S1).
var table1Queries = []table1Query{
	{"P1", "q(h) :- R1(h, x), S1(h, x, y), R2(h, y)"},
	{"P2", "q(h) :- R1(h, x), S1(h, x, y), S2(h, y, z), R2(h, z)"},
	{"P3", "q(h) :- R1(h, x), S1(h, x, y), S2(h, y, z), S3(h, z, u), R2(h, u)"},
	{"S2", "q(h) :- R1(h, x), T1(h, x, y, z), R2(h, y), R3(h, z)"},
	{"S3", "q(h) :- R1(h, x), T2(h, x, y, z, u), R2(h, y), R3(h, z), R4(h, u)"},
}

// genTable1 generates one database holding every Table 1 relation: R1–R4
// are the full [n]×[m] cross products, S1–S3 one attachment level, T1 two
// and T2 three, as in the paper's generator, with every tuple uncertain.
//
// Probabilities are scaled per group: group h draws a ceiling u_h uniformly
// from [0.15, 1] and each of its tuples a probability uniform in (0, u_h).
// With the paper's uniform (0, 1) draws and m in the hundreds, every answer
// is within rounding of 1, and no agreement check could tell a right answer
// from a wrong one; the per-group ceilings spread the answers over (0, 1).
func genTable1(rng *rand.Rand, sz fig5) []table {
	ceil := make([]float64, sz.n+1)
	for h := 1; h <= sz.n; h++ {
		ceil[h] = 0.15 + 0.85*rng.Float64()
	}
	prob := func(h int) float64 {
		for {
			if p := ceil[h] * rng.Float64(); p > 0 {
				return p
			}
		}
	}
	var out []table
	for _, name := range []string{"R1", "R2", "R3", "R4"} {
		t := table{name: name, attrs: []string{"h", "a"}}
		for h := 1; h <= sz.n; h++ {
			for a := 1; a <= sz.m; a++ {
				t.rows = append(t.rows, genRow{[]int64{int64(h), int64(a)}, prob(h)})
			}
		}
		out = append(out, t)
	}
	for _, spec := range []struct {
		name  string
		depth int
	}{{"S1", 1}, {"S2", 1}, {"S3", 1}, {"T1", 2}, {"T2", 3}} {
		t := table{name: spec.name, attrs: []string{"h"}}
		for i := 0; i <= spec.depth; i++ {
			t.attrs = append(t.attrs, fmt.Sprintf("a%d", i+1))
		}
		for h := 1; h <= sz.n; h++ {
			domain := make([][]int64, sz.m)
			for i := range domain {
				domain[i] = []int64{int64(i + 1)}
			}
			for level := 0; level < spec.depth; level++ {
				domain = attach(rng, domain, sz)
			}
			for _, suffix := range domain {
				vals := append([]int64{int64(h)}, suffix...)
				t.rows = append(t.rows, genRow{vals, prob(h)})
			}
		}
		out = append(out, t)
	}
	return out
}

// attach is one construction level of Section 6.1: each prefix value a in
// [m] takes one suffix from the domain, or with probability rf between 2
// and fanout distinct suffixes, until m rows exist.
func attach(rng *rand.Rand, domain [][]int64, sz fig5) [][]int64 {
	rows := make([][]int64, 0, sz.m)
	for a := 1; a <= sz.m && len(rows) < sz.m; a++ {
		k := 1
		if rng.Float64() < sz.rf {
			k = 2 + rng.Intn(sz.fanout-1)
		}
		if k > len(domain) {
			k = len(domain)
		}
		var picked []int
		for len(picked) < k && len(rows) < sz.m {
			si := rng.Intn(len(domain))
			if contains(picked, si) {
				continue
			}
			picked = append(picked, si)
			rows = append(rows, append([]int64{int64(a)}, domain[si]...))
		}
	}
	return rows
}

// load creates the tables in a fresh database through the pdb write path.
func load(tables []table) (*pdb.Database, error) {
	db := pdb.NewDatabase()
	for _, t := range tables {
		rel := db.CreateRelation(t.name, t.attrs...)
		for _, r := range t.rows {
			if err := rel.AddInts(r.p, r.vals...); err != nil {
				return nil, fmt.Errorf("load %s: %w", t.name, err)
			}
		}
	}
	return db, nil
}

// twin builds the same instance as an internal relation database, the
// input of the grounding check (engine.Ground).
func twin(tables []table) (*relation.Database, error) {
	db := relation.NewDatabase()
	for _, t := range tables {
		rel := relation.New(t.name, t.attrs...)
		for _, r := range t.rows {
			if err := rel.Add(tuple.Ints(r.vals...), r.p); err != nil {
				return nil, fmt.Errorf("twin %s: %w", t.name, err)
			}
		}
		db.AddRelation(rel)
	}
	return db, nil
}

// bodyPlan is the left-deep plan in body order.
func bodyPlan(q *query.Query) (*query.Plan, error) {
	order := make([]string, len(q.Atoms))
	for i := range q.Atoms {
		order[i] = q.Atoms[i].Pred
	}
	return query.LeftDeepPlan(q, order)
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
