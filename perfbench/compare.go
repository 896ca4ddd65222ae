package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// savedRun is one run's output as saved by whoever ran it.
type savedRun struct {
	file     string
	workload string
	trace    int
	res      result
	wall     map[string]metricValue
}

// readRuns parses every file in dir that holds a run's output: a "run"
// header line and the result as its last line. Files without a header, such
// as saved standard error, are skipped.
func readRuns(dir string) ([]savedRun, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []savedRun
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		run, err := readRun(path)
		if errors.Is(err, errNoHeader) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, run)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].file < runs[j].file })
	return runs, nil
}

var errNoHeader = errors.New("no run header")

func readRun(path string) (savedRun, error) {
	run := savedRun{file: filepath.Base(path)}
	f, err := os.Open(path)
	if err != nil {
		return run, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if header, ok := strings.CutPrefix(line, "run "); ok {
			var h struct {
				Workload string `json:"workload"`
				Trace    int    `json:"trace"`
			}
			if err := json.Unmarshal([]byte(header), &h); err != nil {
				return run, fmt.Errorf("run header: %w", err)
			}
			run.workload, run.trace = h.Workload, h.Trace
		}
		if wall, ok := strings.CutPrefix(line, "wall "); ok {
			if err := json.Unmarshal([]byte(wall), &run.wall); err != nil {
				return run, fmt.Errorf("wall line: %w", err)
			}
		}
		last = line
	}
	if err := sc.Err(); err != nil {
		return run, err
	}
	if run.workload == "" {
		return run, errNoHeader
	}
	if err := json.Unmarshal([]byte(last), &run.res); err != nil {
		return run, fmt.Errorf("result line: %w", err)
	}
	return run, nil
}

// benchSpec is the part of BENCHMARK.json compare mode reads.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareDirs compares the runs saved in two directories, workload by
// workload and metric by metric: both medians and quartiles, the pairs the
// change won (the i-th run of each side, in file-name order, form a pair),
// whether the change is worse by more than the metric's bound, and whether
// it is a gain. A gain needs at least nine pairs in ten won and medians
// that differ by more than the base's interquartile distance.
func compareDirs(w io.Writer, baseDir, changeDir string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	base, err := readRuns(baseDir)
	if err != nil {
		return err
	}
	change, err := readRuns(changeDir)
	if err != nil {
		return err
	}
	group := func(runs []savedRun, trace int) map[string][]savedRun {
		out := make(map[string][]savedRun)
		for _, r := range runs {
			if r.trace == trace {
				out[r.workload] = append(out[r.workload], r)
			}
		}
		return out
	}
	for trace, metrics := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		b, c := group(base, trace), group(change, trace)
		for _, wl := range workloads {
			bs, cs := b[wl.name], c[wl.name]
			if len(bs) == 0 || len(cs) == 0 {
				continue
			}
			fmt.Fprintf(w, "%s (trace %d): base %d runs, change %d runs; failed %s vs %s\n",
				wl.name, trace, len(bs), len(cs), failedShare(bs), failedShare(cs))
			for _, m := range metrics {
				fmt.Fprintln(w, "  "+compareMetric(m, values(bs, m.Name), values(cs, m.Name)))
			}
			if trace == 0 {
				for _, m := range wallMetrics {
					fmt.Fprintln(w, "  "+compareMetric(m, wallValues(bs, m.Name), wallValues(cs, m.Name)))
				}
			}
		}
	}
	return nil
}

// wallMetrics are the wall-clock figures of the "wall" line: compared like
// the others, with no bound.
var wallMetrics = []metricSpec{
	{Name: "setup_wall_s", Better: "lower"},
	{Name: "ops_per_s", Better: "higher"},
	{Name: "latency_p50_ms", Better: "lower"},
	{Name: "latency_tail_ms", Better: "lower"},
}

func wallValues(runs []savedRun, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.wall[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func failedShare(runs []savedRun) string {
	att, failed := 0, 0
	for _, r := range runs {
		att += r.res.Attempted
		failed += r.res.Failed
	}
	return fmt.Sprintf("%d/%d", failed, att)
}

func values(runs []savedRun, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.res.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func compareMetric(m metricSpec, base, change []float64) string {
	if len(base) == 0 || len(change) == 0 {
		return fmt.Sprintf("%-30s missing", m.Name)
	}
	bq1, bmed, bq3 := quartiles(base)
	cq1, cmed, cq3 := quartiles(change)
	sign := 1.0 // +1 when higher is better
	if m.Better == "lower" {
		sign = -1
	}
	pairs, won := 0, 0
	for i := 0; i < len(base) && i < len(change); i++ {
		pairs++
		if sign*(change[i]-base[i]) > 0 {
			won++
		}
	}
	verdict := "within bound"
	worse := -sign * (cmed - bmed) / math.Abs(bmed)
	switch {
	case m.Bound > 0 && worse > m.Bound:
		verdict = fmt.Sprintf("REGRESSION beyond bound %.2f", m.Bound)
	case won*10 >= pairs*9 && math.Abs(cmed-bmed) > bq3-bq1:
		verdict = "GAIN"
	case m.Bound == 0:
		verdict = "no bound"
	}
	return fmt.Sprintf("%-30s base %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  %+.1f%%  won %d/%d  %s",
		m.Name, bmed, bq1, bq3, cmed, cq1, cq3, 100*(cmed-bmed)/math.Abs(bmed), won, pairs, verdict)
}

// quartiles returns the first quartile, median and third quartile with the
// exclusive method of Python's statistics.quantiles(values, n=4).
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		// Position p*(n+1) in 1-based order statistics, clamped to the ends.
		pos := p * float64(n+1)
		j := int(math.Floor(pos))
		frac := pos - float64(j)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}
