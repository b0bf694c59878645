package generic_test

// Integration floors: every classification benchmark must stay learnable by
// the GENERIC pipeline at reduced dimensionality, and every clustering
// benchmark must stay clusterable. These floors catch regressions in the
// generators, the encoders, and the classifier at once; the precise Table 1
// shape is asserted in internal/experiments.

import (
	"testing"

	generic "github.com/edge-hdc/generic"
)

// floors are deliberately below the expected values (Table 1 ≫ these) so
// the test guards against breakage, not noise.
var accuracyFloor = map[string]float64{
	"CARDIO": 0.70,
	"DNA":    0.90,
	"EEG":    0.85,
	"EMG":    0.90,
	"FACE":   0.85,
	"ISOLET": 0.90,
	"LANG":   0.80,
	"MNIST":  0.75,
	"PAGE":   0.90,
	"PAMAP2": 0.90,
	"UCIHAR": 0.90,
}

func TestGenericPipelineFloorsAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("trains on all 11 benchmarks (~20 s)")
	}
	for _, name := range generic.Datasets() {
		name := name
		t.Run(name, func(t *testing.T) {
			ds, err := generic.LoadDataset(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := generic.EncoderForDataset(generic.Generic, ds, 1024, 1)
			if err != nil {
				t.Fatal(err)
			}
			p := generic.NewPipeline(enc, ds.Classes)
			if _, err := p.Fit(ds.TrainX, ds.TrainY, generic.TrainOptions{Epochs: 5, Seed: 1}); err != nil {
				t.Fatal(err)
			}
			acc := must(p.Accuracy(ds.TestX, ds.TestY))
			if floor := accuracyFloor[name]; acc < floor {
				t.Errorf("%s: accuracy %.3f below floor %.2f", name, acc, floor)
			}
		})
	}
}

var nmiFloor = map[string]float64{
	"Hepta":       0.75,
	"Tetra":       0.45,
	"TwoDiamonds": 0.80,
	"WingNut":     0.60,
	"Iris":        0.50,
}

func TestHDCClusteringFloorsAllBenchmarks(t *testing.T) {
	for _, name := range generic.ClusterSets() {
		name := name
		t.Run(name, func(t *testing.T) {
			cs, err := generic.LoadClusterSet(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			n := 3
			if cs.Features < n {
				n = cs.Features
			}
			enc, err := generic.NewEncoder(generic.Generic, generic.EncoderConfig{
				D: 2048, Features: cs.Features, Bins: 32, Lo: cs.Lo, Hi: cs.Hi,
				N: n, UseID: true, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			res := must(generic.Cluster(enc, cs.X, cs.K, 10))
			nmi := generic.NMI(res.Assignments, cs.Labels)
			if floor := nmiFloor[name]; nmi < floor {
				t.Errorf("%s: NMI %.3f below floor %.2f", name, nmi, floor)
			}
		})
	}
}

func TestAcceleratorMatchesPipelineAcrossBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("trains on several benchmarks")
	}
	// The on-accelerator path (fixed-point scoring, Mitchell divider) and
	// the software pipeline must land within a few points of each other on
	// every tested benchmark.
	for _, name := range []string{"EEG", "FACE", "PAGE"} {
		ds, err := generic.LoadDataset(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := generic.EncoderForDataset(generic.Generic, ds, 1024, 1)
		if err != nil {
			t.Fatal(err)
		}
		p := generic.NewPipeline(enc, ds.Classes)
		if _, err := p.Fit(ds.TrainX, ds.TrainY, generic.TrainOptions{Epochs: 5, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		sw := must(p.Accuracy(ds.TestX, ds.TestY))

		spec := generic.Spec{
			D: 1024, Features: ds.Features, N: 3, Classes: ds.Classes,
			BW: 16, UseID: ds.UseID,
		}
		acc, err := generic.NewAccelerator(spec, 1, ds.Lo, ds.Hi)
		if err != nil {
			t.Fatal(err)
		}
		acc.Train(ds.TrainX, ds.TrainY, 5)
		preds := acc.InferAll(ds.TestX)
		correct := 0
		for i, pr := range preds {
			if pr == ds.TestY[i] {
				correct++
			}
		}
		hw := float64(correct) / float64(ds.TestLen())
		if sw-hw > 0.08 {
			t.Errorf("%s: accelerator accuracy %.3f too far below software %.3f", name, hw, sw)
		}
	}
}
