package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
	"repro/pdb"
)

// serveMixed drives the query server in-process: clients call ServeHTTP
// with real JSON bodies, so request decode, admission, the result cache
// and response encode all run, but no socket does. Reads are Boolean point
// queries over the five Table 1 shapes with h and x bound: a uniform shape
// and a Zipf-popular (h, x). The distinct set, five shapes times n·m pairs,
// is several times the server's default 1,024-entry cache. Every tenth request of a
// client is a /mutate set_prob, which invalidates cached answers over the
// relation it writes and keeps the structure of compiled circuits.
//
// A round is a fixed number of requests per client. Between rounds the
// clients stop, the round's writes are applied to a twin database that
// shares no cache with the served one, and a seeded sample of the round's
// reads is sent again and compared with the (h, x) row of a fresh DNF
// evaluation of the two-head query on the twin. A stale cache hit fails
// the comparison.
func serveMixed(cfg runConfig, rec *recorder) error {
	sz := fig5{n: 50, m: 20, fanout: 4, rf: 0.05}
	perRound, probes := 100, 6
	if cfg.tiny {
		sz = fig5{n: 4, m: 6, fanout: 3, rf: 0.05}
		perRound, probes = 20, 4
	}
	clients := 2
	if n := runtime.NumCPU(); n < clients {
		clients = n
	}
	rng := rand.New(rand.NewSource(cfg.seed))

	var (
		tables []table
		db     *pdb.Database
		srv    *server.Server
	)
	for i := 0; i < setupRepeats; i++ {
		tables, db, srv = nil, nil, nil
		settle()
		start := startSetup()
		tables = genTable1(rand.New(rand.NewSource(cfg.seed)), sz)
		var loadTime time.Duration
		var err error
		db, loadTime, err = timedLoad(tables)
		if err != nil {
			return err
		}
		srv, err = server.New(server.Config{DB: db})
		if err != nil {
			return err
		}
		rec.setup(start)
		rec.mean("pdb.load_s", loadTime.Seconds())
	}
	ref, err := load(tables)
	if err != nil {
		return err
	}

	// Popularity: each read picks a shape uniformly, so every run has the
	// same shape mix, and an (h, x) pair by a Zipf draw over a seeded
	// order of all n·m pairs.
	type readKey struct{ shape, h, x int }
	var pairs []readKey
	for h := 1; h <= sz.n; h++ {
		for x := 1; x <= sz.m; x++ {
			pairs = append(pairs, readKey{0, h, x})
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	// Each client writes only its own share of the tuples, so the writes of
	// one round commute and the twin can replay them in any order.
	type tupleRef struct {
		rel  string
		vals []int64
		p    float64
	}
	shares := make([][]tupleRef, clients)
	i := 0
	for _, t := range tables {
		for _, r := range t.rows {
			shares[i%clients] = append(shares[i%clients], tupleRef{t.name, r.vals, r.p})
			i++
		}
	}

	twoHead := make([]*pdb.Query, len(table1Queries))
	for s, q := range table1Queries {
		twoHead[s], err = pdb.ParseQuery(strings.Replace(q.text, "q(h)", "q(h, x)", 1))
		if err != nil {
			return err
		}
	}

	type request struct {
		key   readKey
		write *tupleRef
		p     float64
		d     time.Duration
		resp  *server.QueryResponse
		ok    bool
	}
	clientRNG := make([]*rand.Rand, clients)
	zipf := make([]*rand.Zipf, clients)
	for c := range clientRNG {
		clientRNG[c] = rand.New(rand.NewSource(cfg.seed*1000 + int64(c) + 1))
		zipf[c] = rand.NewZipf(clientRNG[c], 1.1, 1, uint64(len(pairs)-1))
	}
	circuitsBefore := db.CircuitCacheStats()
	misses := 0

	for round := 0; cfg.more(rec, round); round++ {
		// Draw the round's requests before timing it.
		reqs := make([][]request, clients)
		for c := range reqs {
			reqs[c] = make([]request, perRound)
			for k := range reqs[c] {
				if k%10 == 9 {
					t := &shares[c][clientRNG[c].Intn(len(shares[c]))]
					reqs[c][k] = request{write: t, p: math.Min(0.999, t.p*(0.5+clientRNG[c].Float64()))}
				} else {
					key := pairs[zipf[c].Uint64()]
					key.shape = clientRNG[c].Intn(len(table1Queries))
					reqs[c][k] = request{key: key}
				}
			}
		}
		rec.begin()
		var wg sync.WaitGroup
		for c := range reqs {
			wg.Add(1)
			go func(rs []request) {
				defer wg.Done()
				for k := range rs {
					r := &rs[k]
					if r.write != nil {
						r.d, r.ok = mutate(srv, r.write.rel, r.write.vals, r.p)
					} else {
						r.d, r.resp = pointQuery(srv, pointText(r.key.shape, r.key.h, r.key.x))
						r.ok = r.resp != nil
					}
				}
			}(reqs[c])
		}
		wg.Wait()
		rec.end()

		// Replay the round's writes on the twin, then probe.
		for c := range reqs {
			for _, r := range reqs[c] {
				if r.write != nil && r.ok {
					r.write.p = r.p
					rel, err := ref.Relation(r.write.rel)
					if err != nil {
						return err
					}
					if err := rel.SetProb(r.p, ints(r.write.vals)...); err != nil {
						return fmt.Errorf("twin set_prob: %w", err)
					}
				}
			}
		}
		expected := make(map[int]*pdb.Result)
		for p := 0; p < probes; p++ {
			c, k := rng.Intn(clients), rng.Intn(perRound)
			r := &reqs[c][k]
			if r.write != nil || !r.ok {
				continue
			}
			if expected[r.key.shape] == nil {
				res, err := ref.Evaluate(twoHead[r.key.shape], pdb.Options{Strategy: pdb.DNFLineage})
				if err != nil {
					return fmt.Errorf("twin %s: %w", table1Queries[r.key.shape].name, err)
				}
				expected[r.key.shape] = res
			}
			want := expected[r.key.shape].Prob(pdb.Int(int64(r.key.h)), pdb.Int(int64(r.key.x)))
			_, resp := pointQuery(srv, pointText(r.key.shape, r.key.h, r.key.x))
			switch {
			case resp == nil:
				cfg.logf("serve-mixed %s h=%d x=%d: probe failed", table1Queries[r.key.shape].name, r.key.h, r.key.x)
				r.ok = false
			case !(math.Abs(boolP(resp)-want) <= tol):
				cfg.logf("serve-mixed %s h=%d x=%d: served %v, twin %v", table1Queries[r.key.shape].name, r.key.h, r.key.x, boolP(resp), want)
				rec.mismatch()
				r.ok = false
			}
		}
		for c := range reqs {
			for _, r := range reqs[c] {
				rec.op(r.d, r.ok)
				switch {
				case r.write != nil:
					rec.mean("server.mutate_ms", ms(r.d))
				case r.resp == nil:
				case r.resp.Cached:
					rec.mean("server.hit_ms", ms(r.d))
					rec.ratio("server.cache_hit_ratio", 1, 1)
				default:
					rec.mean("server.miss_ms", ms(r.d))
					rec.ratio("server.cache_hit_ratio", 0, 1)
					summaryLayers(rec, r.d, r.resp.Stats)
					misses++
				}
			}
		}
		rec.roundDone()
	}
	after := db.CircuitCacheStats()
	compiles, hits := after.Compiles-circuitsBefore.Compiles, after.Hits-circuitsBefore.Hits
	if misses > 0 {
		rec.ratio("lineage.circuit_compiles", float64(compiles), float64(misses))
	}
	rec.ratio("lineage.circuit_hit_ratio", float64(hits), float64(hits+compiles))
	return nil
}

// summaryLayers folds the statistics of one evaluated (uncached) response
// into the per-layer metrics. The server's own overhead is the request's
// wall time less the evaluation's plan and inference time.
func summaryLayers(rec *recorder, d time.Duration, st server.StatsSummary) {
	plan, inf := time.Duration(st.PlanNS), time.Duration(st.InferenceNS)
	rec.mean("server.overhead_ms", ms(d-plan-inf))
	rec.mean("engine.exec_ms", ms(plan))
	rec.mean("inference.time_ms", ms(inf))
	rec.mean("engine.rows_charged", float64(st.RowsCharged))
	rec.mean("engine.offending_tuples", float64(st.OffendingTuples))
	rec.mean("aonet.network_nodes", float64(st.NetworkNodes))
	rec.mean("lineage.clauses", float64(st.LineageClauses))
}

// setupRepeats is how many times a workload with one long-lived instance
// builds it; setup_s is the median and the last build is kept.
const setupRepeats = 9

// pointText is the Boolean point query of a Table 1 shape with h and x
// bound.
func pointText(shape, h, x int) string {
	text := table1Queries[shape].text
	body := text[strings.Index(text, ":-"):]
	return "q " + headVar.ReplaceAllStringFunc(body, func(v string) string {
		if v == "h" {
			return strconv.Itoa(h)
		}
		return strconv.Itoa(x)
	})
}

var headVar = regexp.MustCompile(`\b[hx]\b`)

// pointQuery sends one /query and returns its latency and the decoded
// response, nil unless the server answered 200 with a probability in
// [0, 1].
func pointQuery(srv *server.Server, text string) (time.Duration, *server.QueryResponse) {
	body, err := json.Marshal(server.QueryRequest{Query: text})
	if err != nil {
		return 0, nil
	}
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	w := httptest.NewRecorder()
	t0 := time.Now()
	srv.ServeHTTP(w, req)
	d := time.Since(t0)
	var resp server.QueryResponse
	if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &resp) != nil {
		return d, nil
	}
	if p := boolP(&resp); p < 0 || p > 1 {
		return d, nil
	}
	return d, &resp
}

// boolP is a Boolean response's probability; a query with no satisfying
// grounding has none and is 0.
func boolP(resp *server.QueryResponse) float64 {
	if resp.BoolP == nil {
		return 0
	}
	return *resp.BoolP
}

// mutate sends one /mutate set_prob.
func mutate(srv *server.Server, rel string, vals []int64, p float64) (time.Duration, bool) {
	op := server.MutationOp{Op: "set_prob", Relation: rel, P: p}
	for _, v := range vals {
		op.Vals = append(op.Vals, strconv.FormatInt(v, 10))
	}
	body, err := json.Marshal(server.MutateRequest{Ops: []server.MutationOp{op}})
	if err != nil {
		return 0, false
	}
	req := httptest.NewRequest(http.MethodPost, "/mutate", bytes.NewReader(body))
	w := httptest.NewRecorder()
	t0 := time.Now()
	srv.ServeHTTP(w, req)
	return time.Since(t0), w.Code == http.StatusOK
}

func ints(vals []int64) []pdb.Value {
	out := make([]pdb.Value, len(vals))
	for i, v := range vals {
		out[i] = pdb.Int(v)
	}
	return out
}
