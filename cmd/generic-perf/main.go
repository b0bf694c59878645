// Command generic-perf is the repository's benchmark harness: it runs a
// registered suite over the engine's hot paths (GENERIC encoding single and
// batch, batch prediction at several worker counts, a retraining epoch, the
// accelerator cycle model, model-file round-trips) and writes the summary to
// BENCH_GENERIC.json — the machine-readable perf trajectory CI records on
// every push to main.
//
// Methodology: each suite entry is calibrated once to a fixed per-repetition
// iteration budget, warmed up, and then measured over -reps repetitions that
// interleave across the whole suite (A B C A B C ...), so slow drift of the
// host (thermal, noisy neighbors) spreads across entries instead of biasing
// whichever ran last. Reported ns/op is the median across repetitions with
// p10/p90 spread; allocations come from runtime.MemStats deltas.
//
// Usage:
//
//	generic-perf                         # run the suite, write BENCH_GENERIC.json
//	generic-perf -suite encode,predict   # run a subset (prefix match)
//	generic-perf -compare old.json new.json [-threshold 0.3] [-gate]
//
// The compare mode judges new against old with the median +
// interquantile-overlap rule (see internal/perf): advisory by default,
// exit code 1 with -gate.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	generic "github.com/edge-hdc/generic"
	"github.com/edge-hdc/generic/internal/classifier"
	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/perf"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "generic-perf:", err)
		os.Exit(1)
	}
}

// run is the whole command. It returns every error instead of exiting, so
// a failing suite entry still stops the profiles and writes them.
func run(args []string) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		out       = fs.String("out", "BENCH_GENERIC.json", "output path for the benchmark summary JSON")
		reps      = fs.Int("reps", 7, "interleaved repetitions per suite entry")
		budgetMS  = fs.Int("budget", 100, "per-repetition time budget per entry, in milliseconds (sets the fixed iteration count)")
		suite     = fs.String("suite", "", "comma-separated name prefixes to run (empty = full suite)")
		compareTo = fs.Bool("compare", false, "compare two summary files: generic-perf -compare old.json new.json")
		threshold = fs.Float64("threshold", 0.30, "compare: relative median slowdown that counts as a regression when spreads separate")
		gate      = fs.Bool("gate", false, "compare: exit nonzero on regression (default is advisory)")
		list      = fs.Bool("list", false, "list suite entries and exit")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the suite run to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile at exit to this file")
		traceOut  = fs.String("trace", "", "enable span tracing and write Chrome trace-event JSON to this file")
	)
	fs.Parse(args)

	if *compareTo {
		return runCompare(fs.Args(), *threshold, *gate)
	}

	benches, err := buildSuite()
	if err != nil {
		return err
	}
	if *list {
		for _, b := range benches {
			fmt.Println(b.name)
		}
		return nil
	}
	if *suite != "" {
		benches = filterSuite(benches, *suite)
		if len(benches) == 0 {
			return fmt.Errorf("no suite entry matches -suite %q", *suite)
		}
	}

	profiles, err := perf.StartProfiles(*cpuProf, *memProf, *traceOut)
	if err != nil {
		return err
	}
	file, err := runSuite(benches, *reps, time.Duration(*budgetMS)*time.Millisecond)
	if err := errors.Join(err, profiles.Stop()); err != nil {
		return err
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := file.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d entries, git %s)\n", *out, len(file.Results), file.GitSHA)
	return nil
}

// A bench is one registered suite entry: op runs the measured operation once.
type bench struct {
	name string
	op   func() error
	// iters is the calibrated fixed per-repetition iteration count.
	iters int
	// nsPerOp/bytesPerOp/allocsPerOp collect one value per repetition.
	nsPerOp, bytesPerOp, allocsPerOp []float64
}

// buildSuite constructs the registered suite over shared fixtures: the EEG
// benchmark (128 features, 2 classes) at D=2048, the paper's default
// GENERIC encoding. Fixture construction is excluded from measurement.
func buildSuite() ([]*bench, error) {
	const d = 2048
	ds, err := generic.LoadDataset("EEG", 1)
	if err != nil {
		return nil, err
	}
	enc, err := generic.EncoderForDataset(generic.Generic, ds, d, 1)
	if err != nil {
		return nil, err
	}
	// A private encoder for the single-encode entry so pipeline state never
	// interferes.
	encSingle, err := generic.EncoderForDataset(generic.Generic, ds, d, 1)
	if err != nil {
		return nil, err
	}
	scratch := make(generic.Hypervector, encSingle.D())

	batch := ds.TrainX[:256]
	fitX, fitY := ds.TrainX[:200], ds.TrainY[:200]

	p := generic.NewPipeline(enc, ds.Classes)
	if _, err := p.Fit(fitX, fitY, generic.TrainOptions{Epochs: 3, Seed: 1}); err != nil {
		return nil, err
	}

	// A binarized clone for the packed-inference entries; the original stays
	// exact so the existing entries measure the same thing they always did.
	pb := p.Clone()
	if err := pb.Binarize(); err != nil {
		return nil, err
	}
	binDst := make([]int, len(batch))
	// Options are values; building them once outside the measured op keeps
	// the batch entry at its steady state (a serving loop would hoist them
	// the same way).
	w1 := generic.WithWorkers(1)

	encoded := generic.Encode(encSingle, fitX)
	encodedVecs := make([]hdc.Vec, len(encoded))
	copy(encodedVecs, encoded)

	spec := generic.Spec{D: d, Features: ds.Features, N: 3,
		Classes: ds.Classes, BW: 16, UseID: ds.UseID}
	acc, err := generic.NewAccelerator(spec, 1, ds.Lo, ds.Hi)
	if err != nil {
		return nil, err
	}

	var buf bytes.Buffer
	// Every single-sample entry rotates through the test set, so branch
	// history does not overfit one sample and the encode, predict and
	// accelerator entries measure the same rows.
	row := 0
	nextRow := func() []float64 {
		x := ds.TestX[row%ds.TestLen()]
		row++
		return x
	}

	return []*bench{
		{name: "encode/generic/single", op: func() error {
			encSingle.Encode(nextRow(), scratch)
			return nil
		}},
		{name: "encode/generic/batch256", op: func() error {
			generic.EncodeWorkers(enc, batch, 0)
			return nil
		}},
		{name: "predict/single", op: func() error {
			_, err := p.Predict(nextRow())
			return err
		}},
		{name: "predict/batch256/w1", op: func() error {
			_, err := p.PredictAll(batch, generic.WithWorkers(1))
			return err
		}},
		{name: "predict/batch256/w4", op: func() error {
			_, err := p.PredictAll(batch, generic.WithWorkers(4))
			return err
		}},
		{name: "predict/binary/single", op: func() error {
			_, err := pb.Predict(nextRow())
			return err
		}},
		{name: "predict/binary/batch256", op: func() error {
			// Preallocated destination: the steady state allocates nothing.
			return pb.PredictAllInto(binDst, batch, w1)
		}},
		{name: "fit/epoch200", op: func() error {
			_, _, err := classifier.Train(encodedVecs, fitY, ds.Classes,
				generic.TrainOptions{Epochs: 1, Seed: 1})
			return err
		}},
		{name: "fit/lehdc200", op: func() error {
			_, _, err := classifier.Train(encodedVecs, fitY, ds.Classes,
				generic.TrainOptions{Epochs: 1, Seed: 1, Trainer: "lehdc"})
			return err
		}},
		{name: "sim/infer", op: func() error {
			acc.Infer(nextRow())
			return nil
		}},
		{name: "modelio/roundtrip", op: func() error {
			buf.Reset()
			if err := p.Save(&buf); err != nil {
				return err
			}
			_, err := generic.LoadPipeline(&buf)
			return err
		}},
	}, nil
}

func filterSuite(benches []*bench, spec string) []*bench {
	var keep []*bench
	for _, b := range benches {
		for _, prefix := range strings.Split(spec, ",") {
			if prefix = strings.TrimSpace(prefix); prefix != "" && strings.HasPrefix(b.name, prefix) {
				keep = append(keep, b)
				break
			}
		}
	}
	return keep
}

// runSuite calibrates, warms up, and measures every entry with interleaved
// repetitions, then assembles the summary file. It stops at the first
// error an entry returns.
func runSuite(benches []*bench, reps int, budget time.Duration) (*perf.BenchFile, error) {
	if reps < 3 {
		reps = 3
	}
	for _, b := range benches {
		iters, err := calibrate(b, budget)
		if err != nil {
			return nil, err
		}
		b.iters = iters
	}
	// Warmup: one unrecorded repetition each, in suite order.
	for _, b := range benches {
		if err := runRep(b, b.iters); err != nil {
			return nil, err
		}
	}
	// Interleaved measurement: rep r of every entry before rep r+1 of any.
	for r := 0; r < reps; r++ {
		for _, b := range benches {
			ns, bytesOp, allocs, err := measureRep(b, b.iters)
			if err != nil {
				return nil, err
			}
			b.nsPerOp = append(b.nsPerOp, ns)
			b.bytesPerOp = append(b.bytesPerOp, bytesOp)
			b.allocsPerOp = append(b.allocsPerOp, allocs)
		}
	}

	file := &perf.BenchFile{
		Schema: perf.BenchSchemaVersion, GitSHA: gitSHA(),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, b := range benches {
		res := perf.Summarize(b.name, b.iters, b.nsPerOp, b.bytesPerOp, b.allocsPerOp)
		file.Results = append(file.Results, res)
		fmt.Printf("%-28s %6d iters x %d reps   %12.0f ns/op  [p10 %.0f, p90 %.0f]  %8.0f B/op %6.1f allocs/op\n",
			b.name, b.iters, res.Reps, res.MedianNsPerOp, res.P10NsPerOp, res.P90NsPerOp,
			res.BytesPerOp, res.AllocsPerOp)
	}
	return file, nil
}

// calibrate picks the fixed per-repetition iteration count: enough single
// runs to estimate the op cost, then budget/cost rounded to a 1-2-5 step so
// the count is stable across near-identical hosts.
func calibrate(b *bench, budget time.Duration) (int, error) {
	const probe = 3
	start := time.Now()
	if err := runRep(b, probe); err != nil {
		return 0, err
	}
	per := time.Since(start) / probe
	if per <= 0 {
		per = time.Nanosecond
	}
	n := int(budget / per)
	if n < 1 {
		return 1, nil
	}
	return roundDown125(n), nil
}

// roundDown125 rounds n down to the nearest 1/2/5 x 10^k.
func roundDown125(n int) int {
	mag := 1
	for n >= mag*10 {
		mag *= 10
	}
	switch {
	case n >= 5*mag:
		return 5 * mag
	case n >= 2*mag:
		return 2 * mag
	default:
		return mag
	}
}

func runRep(b *bench, iters int) error {
	for i := 0; i < iters; i++ {
		if err := b.op(); err != nil {
			return fmt.Errorf("%s: %w", b.name, err)
		}
	}
	return nil
}

// measureRep times one repetition and derives per-op wall time and
// allocation figures from MemStats deltas (Mallocs/TotalAlloc are exact
// regardless of GC timing).
func measureRep(b *bench, iters int) (nsPerOp, bytesPerOp, allocsPerOp float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err = runRep(b, iters)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(iters)
	return float64(elapsed.Nanoseconds()) / n,
		float64(after.TotalAlloc-before.TotalAlloc) / n,
		float64(after.Mallocs-before.Mallocs) / n, err
}

// gitSHA resolves HEAD by reading .git directly (no git binary dependency),
// searching upward from the working directory. Returns "unknown" when the
// repository state cannot be read.
func gitSHA() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		if sha := readHEAD(filepath.Join(dir, ".git")); sha != "" {
			return sha
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

func readHEAD(gitDir string) string {
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return ""
	}
	s := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(s, "ref: ")
	if !ok {
		return s // detached HEAD holds the SHA directly
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	if data, err := os.ReadFile(filepath.Join(gitDir, "packed-refs")); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			fields := strings.Fields(line)
			if len(fields) == 2 && fields[1] == ref {
				return fields[0]
			}
		}
	}
	return ""
}

// runCompare implements -compare old.json new.json.
func runCompare(args []string, threshold float64, gate bool) error {
	if len(args) != 2 {
		return errors.New("-compare needs exactly two files: old.json new.json")
	}
	old, err := perf.ReadBenchFile(args[0])
	if err != nil {
		return err
	}
	cur, err := perf.ReadBenchFile(args[1])
	if err != nil {
		return err
	}
	if old.GOOS != cur.GOOS || old.GOARCH != cur.GOARCH {
		fmt.Printf("note: comparing across hosts (%s/%s vs %s/%s) — treat verdicts with suspicion\n",
			old.GOOS, old.GOARCH, cur.GOOS, cur.GOARCH)
	}
	vs := perf.Compare(old, cur, threshold)
	if err := perf.WriteVerdicts(os.Stdout, vs); err != nil {
		return err
	}
	if perf.Regressed(vs) {
		fmt.Printf("REGRESSION: at least one entry slowed >%.0f%% beyond noise (old %s -> new %s)\n",
			100*threshold, short(old.GitSHA), short(cur.GitSHA))
		if gate {
			return errors.New("-gate: regression")
		}
		fmt.Println("(advisory mode; pass -gate to fail the build)")
		return nil
	}
	fmt.Println("no regressions")
	return nil
}

func short(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	if sha == "" {
		return "unknown"
	}
	return sha
}
