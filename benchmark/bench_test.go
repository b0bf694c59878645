package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	generic "github.com/edge-hdc/generic"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 100}, {19, 100}, {20, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {50000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = float64(1000 - i)
	}
	s := summarize(lat)
	if s.n != 1000 || s.tailPercent != 99 || s.p50 != 500.5 || s.tail < 989 || s.tail > 991 {
		t.Errorf("summarize(1..1000) = %+v", s)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(data, n=4).
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	} {
		if got := quartiles(c.data); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
}

func loadISOLET(t *testing.T) *generic.Dataset {
	t.Helper()
	ds, err := generic.LoadDataset(datasetName, modelSeed)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestTrafficIsAFunctionOfTheSeed(t *testing.T) {
	ds := loadISOLET(t)
	bodies := func(tr *traffic) [][]byte {
		var out [][]byte
		for _, reqs := range [][]request{tr.lead, tr.side, {tr.probe}} {
			for _, r := range reqs {
				out = append(out, r.body)
			}
		}
		return out
	}
	for _, w := range workloads {
		a, b, c := bodies(genTraffic(w, 7, ds)), bodies(genTraffic(w, 7, ds)), bodies(genTraffic(w, 8, ds))
		if len(a) != len(b) || len(a) != len(c) {
			t.Fatalf("%s: request counts %d, %d, %d", w.name, len(a), len(b), len(c))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: request %d differs between two runs with seed 7", w.name, i)
			}
		}
		same := 0
		for i := range a {
			if bytes.Equal(a[i], c[i]) {
				same++
			}
		}
		if same != 0 {
			t.Errorf("%s: %d of %d requests identical under seeds 7 and 8", w.name, same, len(a))
		}
	}
}

// TestOracleFlagsWrongLabel drives a loop against a scripted server that
// answers class 3 to everything: only the request whose oracle label is 5
// may fail.
func TestOracleFlagsWrongLabel(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"label":3}`)
	}))
	defer srv.Close()
	reqs := make([]request, 4)
	for i := range reqs {
		reqs[i] = request{path: "/predict", body: []byte(`{"x":[0]}`), rows: [][]float64{{0}}, want: []int{3}}
	}
	reqs[2].want = []int{5}
	l := &loop{reqs: reqs, check: checkLabels}
	ts := runPhase(context.Background(), newClient(1), srv.URL, []*loop{l}, 200*time.Millisecond)
	tl := ts[0]
	if tl.sent < 4 || tl.failed == 0 {
		t.Fatalf("sent %d, failed %d: the wrong label went unnoticed", tl.sent, tl.failed)
	}
	if want := tl.sent / 4; tl.failed < want || tl.failed > want+1 {
		t.Errorf("failed %d of %d requests, want one in four", tl.failed, tl.sent)
	}
	if !strings.Contains(tl.firstErr.Error(), "oracle 5") {
		t.Errorf("first error %q does not name the oracle label", tl.firstErr)
	}
	if len(tl.lat) != tl.sent-tl.failed || tl.rows != len(tl.lat) {
		t.Errorf("%d latencies and %d rows for %d correct answers", len(tl.lat), tl.rows, tl.sent-tl.failed)
	}
}

// writeRuns writes one result file per value, each a predict-exact run
// with that latency_p10_ms.
func writeRuns(t *testing.T, dir string, values []float64) string {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		f := resultFile{Runs: []*result{{Workload: "predict-exact", Seed: uint64(i + 1), Correct: true, Attempted: 1,
			Metrics: map[string]metricValue{"latency_p10_ms": {Value: v, Unit: "ms"}}}}}
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("run-%d.json", i)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dir, "*.json")
}

func TestCompareVerdicts(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	base := []float64{0.220, 0.221, 0.219, 0.222, 0.218, 0.220, 0.221, 0.219}
	slow := make([]float64, len(base))
	for i, v := range base {
		slow[i] = 2 * v
	}
	dir := t.TempDir()
	a, same, b := writeRuns(t, filepath.Join(dir, "a"), base), writeRuns(t, filepath.Join(dir, "same"), base), writeRuns(t, filepath.Join(dir, "slow"), slow)
	for _, c := range []struct {
		b, verdict string
		worse      bool
	}{{same, "same", false}, {b, "worse", true}} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, root, a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse || !strings.Contains(out.String(), "latency_p10_ms   "+c.verdict) {
			t.Errorf("compare against %s: worse=%v, output:\n%s", c.b, worse, out.String())
		}
	}

	// The verdict rules on their own: lower- and higher-is-better, and a
	// spread wider than the bound.
	for _, c := range []struct {
		a, b         []float64
		higherBetter bool
		want         string
	}{
		{base, slow, false, "worse"},
		{slow, base, false, "better"},
		{base, slow, true, "better"},
		{base, base, true, "same"},
		{[]float64{1, 2, 1, 2, 1, 2}, []float64{1, 2, 1, 2, 1, 2}, false, "unresolved"},
		{[]float64{1, 2, 1, 2, 1, 2}, []float64{0.2, 0.4, 0.2, 0.4, 0.2, 0.4}, false, "better"},
	} {
		if got := judge(c.a, c.b, c.higherBetter, 0.1).verdict; got != c.want {
			t.Errorf("judge(%v, %v, higherBetter=%v) = %s, want %s", c.a, c.b, c.higherBetter, got, c.want)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metrics and workloads the program
// reports identical to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	for _, c := range []struct {
		kind string
		json []def
		code []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer()}} {
		var got, want []string
		for _, d := range c.json {
			got = append(got, d.Name+" "+d.Unit+" "+d.Better)
		}
		for _, d := range c.code {
			want = append(want, d.name+" "+d.unit+" "+d.better)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("BENCHMARK.json %s:\n%s\nprogram reports:\n%s", c.kind, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestSmoke runs every workload for one second, untraced and traced,
// against a daemon built from this tree.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the daemon")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	e := &env{root: root, build: dir, tmp: filepath.Join(dir, "tmp"), daemonBin: filepath.Join(dir, "generic-serve")}
	ctx := context.Background()
	if err := buildDaemon(ctx, root, e.daemonBin); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(ctx, e, w, 1, 1, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			for _, d := range res.order {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("%s traced=%v: no %s", w.name, traced, d.name)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, d.name, res.Metrics[d.name].Value)
					}
				}
				continue
			}
			// A composite's replayed children cover most of it. Self time is
			// a difference of two timings of the same work, so it may come
			// out slightly negative.
			for _, comp := range []string{"generic.predict", "serve.adapt"} {
				p50, self := res.Metrics[comp+".p50_us"].Value, res.Metrics[comp+".self_p50_us"].Value
				if res.Metrics[comp+".count"].Value > 0 && math.Abs(self) >= p50/2 {
					t.Errorf("%s: %s self time %.1f µs of %.1f µs", w.name, comp, self, p50)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
				t.Errorf("%s: no Chrome trace: %v", w.name, err)
			}
		}
	}
}
