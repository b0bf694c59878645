package generic_test

import (
	"errors"
	"strings"
	"testing"

	generic "github.com/edge-hdc/generic"
)

// must unwraps a (value, error) pair from the trained-pipeline API. A
// non-nil error is a test bug, so it fails loudly via panic (Go forbids
// passing a multi-value call alongside a *testing.T argument).
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func trainXor(t *testing.T) (*generic.Pipeline, [][]float64, []int) {
	t.Helper()
	// A small positional problem: class = which half of the input carries
	// the bump.
	var X [][]float64
	var Y []int
	for i := 0; i < 200; i++ {
		x := make([]float64, 32)
		c := i % 2
		base := 0
		if c == 1 {
			base = 16
		}
		for j := 0; j < 8; j++ {
			x[base+j] = 0.9
		}
		x[(i*7)%32] += 0.05 // mild noise
		X = append(X, x)
		Y = append(Y, c)
	}
	enc, err := generic.NewEncoder(generic.Generic, generic.EncoderConfig{
		D: 512, Features: 32, Lo: 0, Hi: 1, UseID: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := generic.NewPipeline(enc, 2)
	if _, err := p.Fit(X, Y, generic.TrainOptions{Epochs: 5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	return p, X, Y
}

func TestPipelineEndToEnd(t *testing.T) {
	p, X, Y := trainXor(t)
	if acc := must(p.Accuracy(X, Y)); acc < 0.99 {
		t.Errorf("pipeline accuracy = %.3f on a separable problem", acc)
	}
	if p.Model() == nil || p.Encoder() == nil {
		t.Error("accessors returned nil after Fit")
	}
}

func TestPipelineReducedAndQuantized(t *testing.T) {
	p, X, Y := trainXor(t)
	correct := 0
	for i, x := range X {
		if must(p.Predict(x, generic.WithDims(256))) == Y[i] {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(X)); frac < 0.95 {
		t.Errorf("reduced-dimension accuracy = %.3f", frac)
	}
	p.Model().Quantize(4)
	if acc := must(p.Accuracy(X, Y)); acc < 0.95 {
		t.Errorf("4-bit accuracy = %.3f", acc)
	}
}

func TestPipelineErrorsBeforeFit(t *testing.T) {
	enc, _ := generic.NewEncoder(generic.LevelID, generic.EncoderConfig{
		D: 256, Features: 4, Lo: 0, Hi: 1, Seed: 1,
	})
	p := generic.NewPipeline(enc, 2)
	if _, err := p.Predict([]float64{0, 0, 0, 0}); !errors.Is(err, generic.ErrNotTrained) {
		t.Errorf("Predict before Fit: err = %v, want ErrNotTrained", err)
	}
	if _, err := p.PredictAll([][]float64{{0, 0, 0, 0}}, generic.WithWorkers(0)); !errors.Is(err, generic.ErrNotTrained) {
		t.Errorf("PredictAll before Fit: err = %v, want ErrNotTrained", err)
	}
	if _, _, err := p.Adapt([]float64{0, 0, 0, 0}, 0); !errors.Is(err, generic.ErrNotTrained) {
		t.Errorf("Adapt before Fit: err = %v, want ErrNotTrained", err)
	}
	if _, err := p.Accuracy([][]float64{{0, 0, 0, 0}}, []int{0}); !errors.Is(err, generic.ErrNotTrained) {
		t.Errorf("Accuracy before Fit: err = %v, want ErrNotTrained", err)
	}
	if _, err := p.InjectFaults(generic.FaultSpec{Site: generic.FaultSiteClass, Kind: generic.FaultUniform, Rate: 0.01}); !errors.Is(err, generic.ErrNotTrained) {
		t.Errorf("InjectFaults before Fit: err = %v, want ErrNotTrained", err)
	}
	if _, err := p.Scrub(); !errors.Is(err, generic.ErrNotTrained) {
		t.Errorf("Scrub before Fit: err = %v, want ErrNotTrained", err)
	}
}

func TestTrainOnEncoded(t *testing.T) {
	enc, _ := generic.NewEncoder(generic.Generic, generic.EncoderConfig{
		D: 256, Features: 8, Lo: 0, Hi: 1, Seed: 2,
	})
	X := [][]float64{
		{1, 1, 1, 1, 0, 0, 0, 0}, {0, 0, 0, 0, 1, 1, 1, 1},
		{1, 1, 1, 0.9, 0, 0, 0, 0.1}, {0.1, 0, 0, 0, 1, 0.9, 1, 1},
	}
	Y := []int{0, 1, 0, 1}
	p := generic.NewPipeline(enc, 2)
	if _, err := p.Fit(X, Y, generic.TrainOptions{Epochs: 3}); err != nil {
		t.Fatal(err)
	}
	m := p.Model()
	for i, h := range generic.Encode(enc, X) {
		if c, _, _ := m.PredictDimsMargin(h, m.D(), true); c != Y[i] {
			t.Errorf("sample %d predicted %d, want %d", i, c, Y[i])
		}
	}
}

func TestClusterAPI(t *testing.T) {
	cs, err := generic.LoadClusterSet("Hepta", 1)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := generic.NewEncoder(generic.Generic, generic.EncoderConfig{
		D: 1024, Features: cs.Features, Bins: 32, Lo: cs.Lo, Hi: cs.Hi,
		N: cs.Features, UseID: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := generic.Cluster(enc, cs.X, cs.K, 5)
	if err != nil {
		t.Fatal(err)
	}
	km, err := generic.KMeans(cs.X, cs.K, 100, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if nmi := generic.NMI(res.Assignments, cs.Labels); nmi < 0.6 {
		t.Errorf("HDC clustering NMI = %.3f", nmi)
	}
	if nmi := generic.NMI(km.Assignments, cs.Labels); nmi < 0.9 {
		t.Errorf("k-means NMI = %.3f", nmi)
	}
}

func TestAcceleratorAPI(t *testing.T) {
	ds, err := generic.LoadDataset("EEG", 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := generic.Spec{
		D: 1024, Features: ds.Features, N: 3, Classes: ds.Classes,
		BW: 16, UseID: ds.UseID, Mode: generic.ModeTrain,
	}
	acc, err := generic.NewAccelerator(spec, 1, ds.Lo, ds.Hi)
	if err != nil {
		t.Fatal(err)
	}
	acc.Train(ds.TrainX[:100], ds.TrainY[:100], 3)
	pred := acc.InferAll(ds.TestX[:50])
	correct := 0
	for i, p := range pred {
		if p == ds.TestY[i] {
			correct++
		}
	}
	if correct < 30 {
		t.Errorf("accelerator accuracy %d/50 too low", correct)
	}
	rep := generic.Energy(acc.Stats(), generic.PowerConfig{
		ActiveBankFrac: spec.ActiveBankFrac(),
	})
	if rep.TotalJ <= 0 || rep.Seconds <= 0 {
		t.Errorf("degenerate energy report: %+v", rep)
	}
	// Voltage over-scaling must reduce energy.
	vos := generic.Energy(acc.Stats(), generic.PowerConfig{
		ActiveBankFrac: spec.ActiveBankFrac(), VOS: generic.VOSForBER(0.01),
	})
	if vos.TotalJ >= rep.TotalJ {
		t.Error("VOS did not reduce energy")
	}
}

func TestDatasetHelpers(t *testing.T) {
	if len(generic.Datasets()) != 11 {
		t.Errorf("Datasets() = %d names, want 11", len(generic.Datasets()))
	}
	if len(generic.ClusterSets()) != 5 {
		t.Errorf("ClusterSets() = %d names, want 5", len(generic.ClusterSets()))
	}
	if _, err := generic.LoadDataset("NOPE", 1); err == nil {
		t.Error("unknown dataset accepted")
	}
	ds, _ := generic.LoadDataset("PAGE", 1)
	if _, err := generic.EncoderForDataset(generic.Generic, ds, 512, 1); err != nil {
		t.Errorf("EncoderForDataset: %v", err)
	}
	if _, err := generic.EncoderForDataset(generic.Generic, nil, 512, 1); err == nil {
		t.Error("nil dataset accepted")
	}
}

func TestRunExperimentDispatch(t *testing.T) {
	if _, err := generic.RunExperiment("nope", generic.QuickExperimentConfig()); err == nil {
		t.Error("unknown experiment accepted")
	}
	// fig7 is the cheapest experiment; use it to exercise the dispatcher.
	res, err := generic.RunExperiment("fig7", generic.QuickExperimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.String(), "class mem") {
		t.Error("fig7 rendering incomplete")
	}
	if len(generic.Experiments()) != 16 {
		t.Errorf("Experiments() = %d ids, want 16", len(generic.Experiments()))
	}
}
