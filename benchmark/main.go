// Command benchmark is the end-to-end serving benchmark of the repository:
// it builds cmd/generic-serve, boots the real daemon on loopback, drives it
// with closed-loop HTTP traffic from this one process, checks every answer
// against an in-process oracle, and reports the end-to-end metrics named in
// BENCHMARK.json. With --trace 1 it also replays the same requests in
// process through each layer's public functions and reports per-layer
// numbers instead. See README.md in this directory.
//
//	bash benchmark/run.sh --workload predict-exact --seed 1 --seconds 30 --trace 0
//	bash benchmark/run.sh -compare 'base/*.json' 'change/*.json'
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	generic "github.com/edge-hdc/generic"
	"github.com/edge-hdc/generic/internal/perf"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Uint64("seed", 1, "workload seed: which rows are drawn, their order and jitter")
		seconds = flag.Int("seconds", 30, "measured seconds per workload")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced in-process replay")
		out     = flag.String("out", "", "also write the results to this JSON file")
		compare = flag.Bool("compare", false, "compare two sets of result files: -compare 'A-glob' 'B-glob'")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *name, *seed, *seconds, *trace, *out, *compare); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, name string, seed uint64, seconds, trace int, out string, compare bool) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	if compare {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two result-file globs")
		}
		worse, err := compareFiles(os.Stdout, root, flag.Arg(0), flag.Arg(1))
		if err == nil && worse {
			err = errors.New("at least one metric is worse")
		}
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, not %d", seconds)
	}
	selected := workloads
	if name != "all" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}

	e := &env{root: root, build: filepath.Join(root, ".bench_build")}
	e.tmp = filepath.Join(e.build, "tmp")
	e.daemonBin = filepath.Join(e.build, "generic-serve")
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		return err
	}
	if err := buildDaemon(ctx, root, e.daemonBin); err != nil {
		return err
	}
	h := hostShape(root)
	var results []*result
	for _, w := range selected {
		res, err := runWorkload(ctx, e, w, seed, seconds, trace == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		res.Host = h
		res.print(os.Stdout)
		results = append(results, res)
	}
	if out != "" {
		b, err := json.MarshalIndent(resultFile{Runs: results}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	for _, res := range results {
		if !res.Correct {
			return fmt.Errorf("%s: incorrect or failed requests (%d of %d failed)", res.Workload, res.Failed, res.Attempted)
		}
	}
	return nil
}

// findRoot returns the source tree the benchmark measures: the working
// directory, or its parent when run from this directory with go run.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "generic-serve")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no cmd/generic-serve in %s or its parent", wd)
}

// env locates the checkout and its build directory.
type env struct {
	root, build, tmp, daemonBin string
}

// metricDef names one metric of BENCHMARK.json.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the daemon sees, measured untraced.
// The latency follows each workload's lead loop (see README.md): single
// predicts or adapts.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p10_ms", "ms", "lower"},
	{"accuracy", "ratio", "higher"},
	{"rss_peak_mb", "MB", "lower"},
}

// ungated are end-to-end figures printed and written beside endToEnd but
// not gated: on a shared VM they move by more than 10% between identical
// runs.
var ungated = []metricDef{
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"throughput_sps", "samples/s", "higher"},
}

// daemonHists and daemonCounters are the /metrics instruments whose deltas
// over a workload are reported as daemon.* per-layer metrics.
var (
	daemonHists    = []string{"serve_predict_ns", "encode_ns", "predict_ns", "serve_adapt_ns", "snapshot_publish_ns"}
	daemonCounters = []string{"serve_requests_total", "wal_appends_total", "checkpoints_total", "serve_shed_total", "serve_deadline_total"}
)

// daemonHistMetric names the mean of a daemon latency histogram.
func daemonHistMetric(h string) string { return "daemon." + strings.TrimSuffix(h, "_ns") + "_mean_us" }

// perLayer lists the per-layer metrics the traced run reports.
func perLayer() []metricDef {
	var defs []metricDef
	for _, s := range spanNames {
		defs = append(defs,
			metricDef{s + ".count", "count", "higher"},
			metricDef{s + ".p50_us", "us", "lower"},
			metricDef{s + ".busy_ms", "ms", "lower"})
		if composites[s] {
			defs = append(defs, metricDef{s + ".self_p50_us", "us", "lower"})
		}
	}
	defs = append(defs,
		metricDef{"generic.clone.bytes_per_op", "B", "lower"},
		metricDef{"generic.predict.children_frac", "ratio", "higher"},
		metricDef{"serve.adapt.updated_ratio", "ratio", "higher"},
		metricDef{"serve_http.transport_us", "us", "lower"},
		metricDef{"trace.overhead_frac", "ratio", "lower"})
	for _, h := range daemonHists {
		defs = append(defs, metricDef{daemonHistMetric(h), "us", "lower"})
	}
	for _, c := range daemonCounters {
		better := "higher"
		if c == "serve_shed_total" || c == "serve_deadline_total" {
			better = "lower"
		}
		defs = append(defs, metricDef{"daemon." + c, "count", better})
	}
	return defs
}

// metricValue is one reported metric. Samples and Note appear in the table
// and the -out file, not in the final stdout line.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Note    string  `json:"note,omitempty"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
}

// result is one workload run.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Ungated   map[string]metricValue `json:"ungated,omitempty"`
	Host      hostInfo               `json:"host"`
	order     []metricDef
}

// resultFile is the -out file: every run of one invocation.
type resultFile struct {
	Runs []*result `json:"runs"`
}

func lookup(defs []metricDef, name string) metricDef {
	for _, d := range defs {
		if d.name == name {
			return d
		}
	}
	panic("benchmark: unlisted metric " + name)
}

func (r *result) set(name string, v float64, samples int, note string) {
	r.Metrics[name] = metricValue{Value: v, Unit: lookup(r.order, name).unit, Samples: samples, Note: note}
}

func (r *result) setUngated(name string, v float64, samples int, note string) {
	if r.Ungated == nil {
		r.Ungated = map[string]metricValue{}
	}
	r.Ungated[name] = metricValue{Value: v, Unit: lookup(ungated, name).unit, Samples: samples, Note: note}
}

// print writes the metric table and then, as the last line, the result as
// one JSON object with every gated metric's value and unit.
func (r *result) print(w *os.File) {
	fmt.Fprintf(w, "%s seed %d, %d s, trace %d: %d requests, %d failed\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Attempted, r.Failed)
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]valueUnit{}}
	row := func(name string, m metricValue) {
		fmt.Fprintf(w, "  %-36s %14.6g %-10s %8d  %s\n", name, m.Value, m.Unit, m.Samples, m.Note)
	}
	for _, d := range r.order {
		row(d.name, r.Metrics[d.name])
		line.Metrics[d.name] = valueUnit{r.Metrics[d.name].Value, r.Metrics[d.name].Unit}
	}
	for _, d := range ungated {
		if m, ok := r.Ungated[d.name]; ok {
			m.Note = "not gated; " + m.Note
			row(d.name, m)
		}
	}
	b, _ := json.Marshal(line) // plain numbers and strings always marshal
	fmt.Fprintf(w, "%s\n", b)
}

func hostShape(root string) hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: "unknown", GoVersion: runtime.Version(), GitSHA: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// Only the checkout's own metadata names the commit: a checkout without
	// .git keeps "unknown" rather than git finding an enclosing repository.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			h.GitSHA = strings.TrimSpace(string(b))
		}
	}
	return h
}

// runWorkload measures one workload against freshly booted daemons.
func runWorkload(ctx context.Context, e *env, w workload, seed uint64, seconds int, traced bool) (*result, error) {
	dir := filepath.Join(e.tmp, w.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tracer := perf.New(traceCapacity, seed)
	if traced {
		tracer.Enable()
	}
	oracle, ds, modelFile, err := buildOracle(w, dir, tracer)
	if err != nil {
		return nil, fmt.Errorf("building the oracle: %w", err)
	}
	tracer.Disable()
	tr := genTraffic(w, seed, ds)
	if err := tr.expect(w, oracle); err != nil {
		return nil, fmt.Errorf("computing oracle answers: %w", err)
	}

	boots := 15
	if traced {
		boots = 1 // set-up time is an end-to-end metric; the traced run skips it
	}
	var setup []float64
	var d *daemon
	for i := 0; i < boots; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("stopping boot %d: %w", i, err)
			}
		}
		args := []string{"-workers", fmt.Sprint(workers)}
		switch {
		case w.binary:
			args = append(args, "-model", modelFile)
		case w.kind == adaptKind:
			args = append(args, "-dataset", datasetName, "-state-dir", filepath.Join(dir, fmt.Sprintf("state-%d", i)), "-wal-sync", "none")
		default:
			args = append(args, "-dataset", datasetName)
		}
		var boot time.Duration
		d, boot, err = bootDaemon(ctx, e.daemonBin, args, filepath.Join(dir, fmt.Sprintf("daemon-%d.log", i)))
		if err != nil {
			return nil, err
		}
		setup = append(setup, boot.Seconds())
	}
	m, err := measure(ctx, d, w, tr, seconds, ds.Classes)
	if stopErr := d.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("stopping the daemon: %w", stopErr)
	}
	if err != nil {
		return nil, err
	}
	m.verify(w, oracle, tr)

	res := &result{Workload: w.name, Seed: seed, Seconds: seconds, Metrics: map[string]metricValue{},
		Correct: m.failed == 0 && len(m.problems) == 0, Attempted: m.attempted, Failed: m.failed}
	for _, p := range m.problems {
		fmt.Fprintf(os.Stderr, "%s: %s\n", w.name, p)
	}
	if !traced {
		res.order = endToEnd
		m.report(res, w, setup)
		return res, nil
	}
	res.Trace, res.order = 1, perLayer()
	if err := layerReport(res, w, oracle, tr, tracer, m, filepath.Join(dir, "replay")); err != nil {
		return nil, err
	}
	traceOut := filepath.Join(e.build, "trace-"+w.name+".json")
	if err := writeTrace(traceOut, tracer); err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}
	fmt.Printf("%s: Chrome trace in %s\n", w.name, traceOut)
	return res, nil
}

// warmup is the unrecorded lead-in of every phase.
const warmup = time.Second

// measurement is everything one daemon run observed.
type measurement struct {
	lead, side        latencySummary // whole phase; side: adapt-mix's predict connection
	bestP10           float64        // lead loop's lowest window 10th percentile, ms
	bestN             int            // answers in that window
	throughput        float64        // whole phase saturate, samples/s
	thrRows           int            // samples answered in phase saturate
	rssPeaks          []float64      // per-window peak resident MB of every measured phase
	attempted, failed int
	before, after     daemonMetrics
	acked             []ackedAdapt
	probe             predictResponse
	accuracy          float64
	problems          []string // failed cross-checks and first request errors
}

func (m *measurement) add(ts ...tally) {
	for _, t := range ts {
		m.attempted += t.sent
		m.failed += t.failed
		if t.firstErr != nil {
			m.problems = append(m.problems, t.firstErr.Error())
		}
	}
}

// measured runs the loops through an unrecorded warm-up and then for dur,
// sampling the daemon's memory meanwhile, and returns the measured tallies.
func (m *measurement) measured(ctx context.Context, c *http.Client, d *daemon, loops []*loop, dur time.Duration) ([]tally, error) {
	m.add(runPhase(ctx, c, d.url, loops, warmup)...)
	var peaks []float64
	var err error
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		peaks, err = d.rssPeaks(dur)
	}()
	ts := runPhase(ctx, c, d.url, loops, dur)
	<-sampled
	m.add(ts...)
	m.rssPeaks = append(m.rssPeaks, peaks...)
	if err == nil {
		err = ctx.Err()
	}
	return ts, err
}

// measure drives the daemon through the workload's phases, then probes
// accuracy and reads the daemon's counters.
func measure(ctx context.Context, d *daemon, w workload, tr *traffic, seconds int, classes int) (*measurement, error) {
	c := newClient(2)
	defer c.CloseIdleConnections()
	m := &measurement{}
	var err error
	if m.before, err = scrape(ctx, c, d.url); err != nil {
		return nil, err
	}
	total := time.Duration(seconds) * time.Second
	lead := &loop{reqs: tr.lead, check: checkLabels}
	// The lead loop's latency comes from phase serial and the throughput
	// from phase saturate; only the predict workloads separate the two.
	serial, saturate := total, total
	var latTally tally
	var ts []tally
	switch w.kind {
	case predictKind:
		// Phase serial: one connection. Phase saturate: two connections.
		// Serial gets the larger share: the gated latency comes from its
		// best window, and more windows make a calm one likelier.
		serial = total * 3 / 4
		saturate = total - serial
		var s []tally
		if s, err = m.measured(ctx, c, d, []*loop{lead}, serial); err != nil {
			return nil, err
		}
		latTally = s[0]
		second := &loop{reqs: tr.lead, next: len(tr.lead) / 2, check: checkLabels}
		if ts, err = m.measured(ctx, c, d, []*loop{lead, second}, saturate); err != nil {
			return nil, err
		}
	case adaptKind:
		// Adapts go in order on one connection, so the daemon applies them
		// in the order acked records them.
		lead.check = recordAdapts(&m.acked)
		side := &loop{reqs: tr.side, check: checkInRange(classes)}
		if ts, err = m.measured(ctx, c, d, []*loop{lead, side}, total); err != nil {
			return nil, err
		}
		latTally, m.side = ts[0], summarize(ts[1].lat)
	}
	m.lead = summarize(latTally.lat)
	m.bestP10, m.bestN = bestLatency(serial, latTally)
	for _, t := range ts {
		m.thrRows += t.rows
	}
	m.throughput = float64(m.thrRows) / saturate.Seconds()
	m.attempted++
	if _, err := send(ctx, c, d.url, &tr.probe, new(bytes.Buffer), func(_ *request, resp []byte) error {
		return json.Unmarshal(resp, &m.probe)
	}); err != nil {
		m.failed++
		m.problems = append(m.problems, "probe: "+err.Error())
	}
	if m.after, err = scrape(ctx, c, d.url); err != nil {
		return nil, err
	}
	// Every request between the two scrapes, and the second scrape itself,
	// counts once in serve_requests_total.
	if got, want := m.after.counter("serve_requests_total")-m.before.counter("serve_requests_total"), int64(m.attempted+1); got != want {
		m.problems = append(m.problems, fmt.Sprintf("daemon counted %d requests, benchmark sent %d", got, want))
	}
	if got, want := m.after.counter("wal_appends_total")-m.before.counter("wal_appends_total"), int64(len(m.acked)); got != want {
		m.problems = append(m.problems, fmt.Sprintf("daemon appended %d WAL records, %d adapts were acknowledged", got, want))
	}
	return m, nil
}

// verify checks the run against the oracle: adapt-mix's acknowledged
// adapts are replayed serially and must match every (pred, updated)
// answer; the probe must equal the oracle's final state.
func (m *measurement) verify(w workload, oracle *generic.Pipeline, tr *traffic) {
	want := tr.probe.want
	if w.kind == adaptKind {
		replayed := oracle.Clone()
		bad := 0
		for i, a := range m.acked {
			pred, updated, err := replayed.Adapt(a.req.rows[0], a.req.label)
			if err != nil || pred != a.resp.Pred || updated != a.resp.Updated {
				if bad == 0 {
					m.problems = append(m.problems, fmt.Sprintf("adapt %d: daemon (%d, %v), oracle (%d, %v, %v)",
						i, a.resp.Pred, a.resp.Updated, pred, updated, err))
				}
				bad++
			}
		}
		m.failed += bad
		var err error
		if want, err = replayed.PredictAll(tr.probe.rows, generic.WithWorkers(workers)); err != nil {
			m.problems = append(m.problems, "oracle probe: "+err.Error())
			return
		}
	}
	if err := matchLabels(m.probe, want); err != nil {
		m.failed++
		m.problems = append(m.problems, "probe: "+err.Error())
		return
	}
	correct := 0
	for i, y := range tr.probeY {
		if m.probe.Labels[i] == y {
			correct++
		}
	}
	m.accuracy = float64(correct) / float64(len(tr.probeY))
}

// report fills the end-to-end metrics and the ungated figures.
func (m *measurement) report(res *result, w workload, setup []float64) {
	lead := "single /predict, 1 connection"
	if w.kind == adaptKind {
		updated := 0
		for _, a := range m.acked {
			if a.resp.Updated {
				updated++
			}
		}
		lead = fmt.Sprintf("/adapt, %.1f%% updated; /predict beside it p50 %.4f ms",
			100*float64(updated)/float64(max(len(m.acked), 1)), m.side.p50)
	}
	res.set("setup_s", perf.Quantile(setup, 0.5), len(setup), "median of cold boots, exec to first /readyz 200")
	res.set("latency_p10_ms", m.bestP10, m.bestN, fmt.Sprintf("%s; lowest of %d window p10s", lead, windows))
	res.set("accuracy", m.accuracy, len(m.probe.Labels), "labeled probe after the load")
	res.set("rss_peak_mb", perf.Quantile(m.rssPeaks, 0.5), len(m.rssPeaks), "daemon VmRSS while serving, median of window peaks")
	res.setUngated("latency_p50_ms", m.lead.p50, m.lead.n, "lead loop, whole phase")
	res.setUngated("latency_tail_ms", m.lead.tail, m.lead.n, fmt.Sprintf("lead loop, whole phase, p%g", m.lead.tailPercent))
	res.setUngated("throughput_sps", m.throughput, m.thrRows, "samples answered per second by all connections, whole phase")
}
