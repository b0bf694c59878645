package main

// Workloads, their generated inputs, and the in-process oracle.

import (
	"encoding/json"
	"fmt"
	"path/filepath"

	generic "github.com/edge-hdc/generic"
	"github.com/edge-hdc/generic/internal/perf"
	"github.com/edge-hdc/generic/internal/rng"
)

// The served model is fixed: every run serves ISOLET at D=2048 with the
// GENERIC encoding, trained exactly as cmd/generic-serve's -dataset path
// trains it (dataset and hypervector seed 1, -epochs 20, -workers 2).
const (
	datasetName = "ISOLET"
	modelSeed   = 1
	dims        = 2048
	epochs      = 20
	workers     = 2
)

// Workload inputs. sigma is the width of the Gaussian jitter added to every
// drawn row: at 1.5 the served accuracy is about 0.9 and about one fresh
// adapt in ten updates the model, so both the predict and the adapt paths
// do real work on traffic that looks like the training distribution. The
// model learns the adapt rows it has seen, so adapt-mix draws a larger pool
// to keep the update ratio up over a run.
const (
	poolSize      = 4096  // distinct pre-marshaled requests per connection
	adaptPoolSize = 16384 // distinct pre-marshaled /adapt requests
	probeCopies   = 4     // jittered copies of the test split in the accuracy probe
	sigma         = 1.5
)

type kind int

const (
	predictKind kind = iota // single-sample /predict
	adaptKind               // labeled /adapt beside a /predict connection
)

// workload is one traffic mix against one daemon configuration.
type workload struct {
	name   string
	kind   kind
	binary bool // the daemon loads a binarized model file instead of self-training
}

// workloads are listed in BENCHMARK.json with the reason each was chosen.
var workloads = []workload{
	{name: "predict-exact", kind: predictKind},
	{name: "predict-binary", kind: predictKind, binary: true},
	{name: "adapt-mix", kind: adaptKind},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Request and response bodies, shaped like cmd/generic-serve's own types.
type predictBody struct {
	X  []float64   `json:"x,omitempty"`
	Xs [][]float64 `json:"xs,omitempty"`
}

type adaptBody struct {
	X     []float64 `json:"x"`
	Label int       `json:"label"`
}

type predictResponse struct {
	Label  *int  `json:"label,omitempty"`
	Labels []int `json:"labels,omitempty"`
}

type adaptResponse struct {
	Pred    int  `json:"pred"`
	Updated bool `json:"updated"`
}

// request is one pre-marshaled HTTP request and the answer the oracle
// expects for it.
type request struct {
	path  string
	body  []byte
	rows  [][]float64 // the samples in body
	label int         // the label sent with an /adapt
	want  []int       // oracle labels; nil where the answer depends on timing
}

// traffic is one workload's generated inputs, all built before timing.
type traffic struct {
	lead   []request // the lead connection, sent in order and cycled
	side   []request // adapt-mix's /predict connection
	probe  request   // labeled accuracy probe, sent once after the load
	probeY []int
}

// jitterRow returns x plus independent N(0, sigma²) noise per feature.
func jitterRow(x []float64, r *rng.Rand) []float64 {
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = v + sigma*r.NormFloat64()
	}
	return y
}

// drawRows draws n jittered rows (with their labels) from X, Y.
func drawRows(n int, X [][]float64, Y []int, r *rng.Rand) ([][]float64, []int) {
	rows, labels := make([][]float64, n), make([]int, n)
	for i := range rows {
		j := r.Intn(len(X))
		rows[i], labels[i] = jitterRow(X[j], r), Y[j]
	}
	return rows, labels
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // float64 slices and ints always marshal
	}
	return b
}

// genTraffic builds the workload's requests from the workload seed alone:
// which test and train rows are drawn, their order, and their jitter. The
// same seed gives byte-identical bodies.
func genTraffic(w workload, seed uint64, ds *generic.Dataset) *traffic {
	r := rng.New(seed)
	t := &traffic{}
	predicts := func(rows [][]float64) []request {
		out := make([]request, len(rows))
		for i, x := range rows {
			out[i] = request{path: "/predict", body: mustMarshal(predictBody{X: x}), rows: rows[i : i+1]}
		}
		return out
	}
	switch w.kind {
	case predictKind:
		rows, _ := drawRows(poolSize, ds.TestX, ds.TestY, r)
		t.lead = predicts(rows)
	case adaptKind:
		rows, labels := drawRows(adaptPoolSize, ds.TrainX, ds.TrainY, r)
		t.lead = make([]request, len(rows))
		for i, x := range rows {
			t.lead[i] = request{path: "/adapt", body: mustMarshal(adaptBody{X: x, Label: labels[i]}),
				rows: rows[i : i+1], label: labels[i]}
		}
		side, _ := drawRows(poolSize, ds.TestX, ds.TestY, r)
		t.side = predicts(side)
	}
	var probe [][]float64
	for c := 0; c < probeCopies; c++ {
		for i, x := range ds.TestX {
			probe = append(probe, jitterRow(x, r))
			t.probeY = append(t.probeY, ds.TestY[i])
		}
	}
	t.probe = request{path: "/predict", body: mustMarshal(predictBody{Xs: probe}), rows: probe}
	return t
}

// expect fills in the oracle's answer for every request whose answer does
// not depend on timing: every predict of the predict workloads, and their
// probe. adapt-mix's answers are replayed after the run instead.
func (t *traffic) expect(w workload, oracle *generic.Pipeline) error {
	if w.kind == adaptKind {
		return nil
	}
	var rows [][]float64
	for _, req := range t.lead {
		rows = append(rows, req.rows...)
	}
	want, err := oracle.PredictAll(rows, generic.WithWorkers(workers))
	if err != nil {
		return err
	}
	for i := range t.lead {
		n := len(t.lead[i].rows)
		t.lead[i].want, want = want[:n], want[n:]
	}
	t.probe.want, err = oracle.PredictAll(t.probe.rows, generic.WithWorkers(workers))
	return err
}

// buildOracle rebuilds in process, with the daemon's own public calls and
// seeds, the model the daemon serves. For a binary workload it also writes
// the binarized model file the daemon loads (Binarize + SaveFile) and
// returns the pipeline loaded back from it, as the daemon loads it. Fit and
// load are recorded as setup spans on t when it is enabled.
func buildOracle(w workload, dir string, t *perf.Tracer) (p *generic.Pipeline, ds *generic.Dataset, modelFile string, err error) {
	ds, err = generic.LoadDataset(datasetName, modelSeed)
	if err != nil {
		return nil, nil, "", err
	}
	enc, err := generic.EncoderForDataset(generic.Generic, ds, dims, modelSeed)
	if err != nil {
		return nil, nil, "", err
	}
	p = generic.NewPipeline(enc, ds.Classes)
	sp := t.Begin("generic.fit")
	_, err = p.Fit(ds.TrainX, ds.TrainY, generic.TrainOptions{Epochs: epochs, Seed: modelSeed, Workers: workers})
	sp.End()
	if err != nil || !w.binary {
		return p, ds, "", err
	}
	if err := p.Binarize(); err != nil {
		return nil, nil, "", err
	}
	modelFile = filepath.Join(dir, "isolet-binary.model")
	if err := p.SaveFile(modelFile); err != nil {
		return nil, nil, "", err
	}
	sp = t.Begin("generic.load")
	p, err = generic.LoadPipelineFile(modelFile)
	sp.End()
	return p, ds, modelFile, err
}
