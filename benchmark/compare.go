package main

// -compare: two sets of result files, one verdict per (workload, metric),
// judged against the bounds in BENCHMARK.json.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the three cut points of v into four groups, computed as
// Python's statistics.quantiles(v, n=4) does (its default exclusive method).
func quartiles(v []float64) [3]float64 {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

// relative returns d as a share of base (±Inf for a nonzero d on a zero base).
func relative(d, base float64) float64 {
	if d == 0 {
		return 0
	}
	return d / math.Abs(base)
}

// judgement is the verdict on one metric of one workload.
type judgement struct {
	verdict          string // better, worse, same or unresolved
	medA, medB       float64
	spreadA, spreadB float64 // quartile distance over median
	change           float64 // relative median change, positive = worse
}

// judge compares set b against baseline a. A row is unresolved when either
// side's spread exceeds the bound, unless every run of b reads better than
// every run of a.
func judge(a, b []float64, higherBetter bool, bound float64) judgement {
	qa, qb := quartiles(a), quartiles(b)
	j := judgement{medA: qa[1], medB: qb[1],
		spreadA: relative(qa[2]-qa[0], qa[1]), spreadB: relative(qb[2]-qb[0], qb[1]),
		change: relative(qb[1]-qa[1], qa[1])}
	if higherBetter {
		j.change = -j.change
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (higherBetter && y <= x) || (!higherBetter && y >= x) {
				allBetter = false
			}
		}
	}
	switch {
	case math.Max(j.spreadA, j.spreadB) > bound && allBetter:
		j.verdict = "better"
	case math.Max(j.spreadA, j.spreadB) > bound:
		j.verdict = "unresolved"
	case j.change > bound:
		j.verdict = "worse"
	case j.change < -bound:
		j.verdict = "better"
	default:
		j.verdict = "same"
	}
	return j
}

// loadRuns reads every untraced run in the files matching pattern.
func loadRuns(pattern string) ([]*result, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files match %q", pattern)
	}
	var runs []*result
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", p, err)
		}
		for _, r := range f.Runs {
			if r.Trace == 0 {
				runs = append(runs, r)
			}
		}
	}
	return runs, nil
}

// compareFiles prints one row per (workload, end-to-end metric) present in
// both sets and reports whether any row is worse.
func compareFiles(w io.Writer, root, patternA, patternB string) (worse bool, err error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return false, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return false, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	sets := [2][]*result{}
	for i, pattern := range []string{patternA, patternB} {
		if sets[i], err = loadRuns(pattern); err != nil {
			return false, err
		}
		hosts := map[hostInfo]int{}
		for _, r := range sets[i] {
			hosts[r.Host]++
		}
		for h, n := range hosts {
			fmt.Fprintf(w, "%c: %d runs on nproc %d, GOMAXPROCS %d, %s, %s, commit %s\n",
				'A'+i, n, h.NProc, h.GOMAXPROCS, h.CPU, h.GoVersion, h.GitSHA)
		}
	}
	values := func(runs []*result, workload, metric string) []float64 {
		var v []float64
		for _, r := range runs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
				v = append(v, m.Value)
			}
		}
		return v
	}
	fmt.Fprintf(w, "%-15s %-16s %-10s %12s %7s %12s %7s %8s %6s\n",
		"workload", "metric", "verdict", "median A", "spread", "median B", "spread", "change", "bound")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			a, bv := values(sets[0], wl.name, m.Name), values(sets[1], wl.name, m.Name)
			if len(a) == 0 || len(bv) == 0 {
				continue
			}
			j := judge(a, bv, m.Better == "higher", m.Bound)
			worse = worse || j.verdict == "worse"
			fmt.Fprintf(w, "%-15s %-16s %-10s %12.5g %6.1f%% %12.5g %6.1f%% %+7.1f%% %5.0f%%\n",
				wl.name, m.Name, j.verdict, j.medA, 100*j.spreadA, j.medB, 100*j.spreadB, 100*j.change, 100*m.Bound)
		}
	}
	return worse, nil
}
