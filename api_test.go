package generic_test

import (
	"strings"
	"testing"

	generic "github.com/edge-hdc/generic"
)

// TestFitValidation pins the upfront shape checks: malformed training input
// is an error from Fit, never a panic from deep inside encoding or training.
func TestFitValidation(t *testing.T) {
	enc, err := generic.NewEncoder(generic.Generic, generic.EncoderConfig{
		D: 256, Features: 4, Lo: 0, Hi: 1, UseID: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	good := [][]float64{{0, 0, 1, 1}, {1, 1, 0, 0}}
	cases := []struct {
		name    string
		classes int
		X       [][]float64
		Y       []int
		wantSub string
	}{
		{"empty set", 2, nil, nil, "empty training set"},
		{"length mismatch", 2, good, []int{0}, "2 samples vs 1 labels"},
		{"feature count", 2, [][]float64{{0, 0, 1}}, []int{0}, "has 3 features, encoder expects 4"},
		{"label high", 2, good, []int{0, 2}, "label 2 at sample 1 out of range"},
		{"label negative", 2, good, []int{-1, 0}, "label -1 at sample 0 out of range"},
		{"too few classes", 1, good, []int{0, 0}, "at least 2 classes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := generic.NewPipeline(enc, tc.classes)
			epochs, err := p.Fit(tc.X, tc.Y, generic.TrainOptions{Epochs: 2, Seed: 1})
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("Fit err = %v, want substring %q", err, tc.wantSub)
			}
			if epochs != 0 {
				t.Errorf("failed Fit reported %d epochs", epochs)
			}
			if p.Model() != nil {
				t.Error("failed Fit installed a model")
			}
		})
	}
}

// TestFitReturnsEpochs checks the new return value: the number of retraining
// epochs actually run, bounded by the request.
func TestFitReturnsEpochs(t *testing.T) {
	p, X, Y := trainableProblem(t)
	epochs, err := p.Fit(X, Y, generic.TrainOptions{Epochs: 7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if epochs < 1 || epochs > 7 {
		t.Fatalf("Fit ran %d epochs, want within [1,7]", epochs)
	}
}

// TestPredictAllDefaultIsSerial: PredictAll with no options is the serial
// path.
func TestPredictAllDefaultIsSerial(t *testing.T) {
	p, X, Y := trainableProblem(t)
	if _, err := p.Fit(X, Y, generic.TrainOptions{Epochs: 5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	serial, err := p.PredictAll(X)
	if err != nil {
		t.Fatal(err)
	}
	one, _ := p.PredictAll(X, generic.WithWorkers(1))
	for i := range serial {
		if serial[i] != one[i] {
			t.Fatalf("default PredictAll differs from WithWorkers(1) at %d", i)
		}
	}
}

// TestAccuracyLengthMismatch: the regularized Accuracy surfaces shape errors
// instead of silently misaligning.
func TestAccuracyLengthMismatch(t *testing.T) {
	p, X, Y := trainableProblem(t)
	if _, err := p.Fit(X, Y, generic.TrainOptions{Epochs: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Accuracy(X, Y[:len(Y)-1]); err == nil {
		t.Fatal("Accuracy accepted mismatched X/Y lengths")
	}
}

// TestPredictShapeValidation: a wrong feature width is an error at every
// inference entry point, not an encoding panic; Adapt also rejects labels
// outside the class range.
func TestPredictShapeValidation(t *testing.T) {
	p, X, Y := trainableProblem(t)
	if _, err := p.Fit(X, Y, generic.TrainOptions{Epochs: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	narrow := []float64{1, 2, 3}
	if _, err := p.Predict(narrow); err == nil || !strings.Contains(err.Error(), "features") {
		t.Errorf("Predict on narrow input: err = %v", err)
	}
	if _, err := p.PredictAll([][]float64{X[0], narrow}); err == nil || !strings.Contains(err.Error(), "sample 1") {
		t.Errorf("PredictAll on narrow row: err = %v", err)
	}
	if _, err := p.Accuracy([][]float64{narrow}, []int{0}); err == nil || !strings.Contains(err.Error(), "features") {
		t.Errorf("Accuracy on narrow row: err = %v", err)
	}
	if _, _, err := p.Adapt(narrow, 0); err == nil || !strings.Contains(err.Error(), "features") {
		t.Errorf("Adapt on narrow input: err = %v", err)
	}
	if _, _, err := p.Adapt(X[0], 2); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("Adapt with label 2 of 2 classes: err = %v", err)
	}
	if _, _, err := p.Adapt(X[0], Y[0]); err != nil {
		t.Errorf("valid Adapt errored: %v", err)
	}
}

// trainableProblem builds an untrained two-class pipeline plus a linearly
// separable dataset for it.
func trainableProblem(t *testing.T) (*generic.Pipeline, [][]float64, []int) {
	t.Helper()
	enc, err := generic.NewEncoder(generic.Generic, generic.EncoderConfig{
		D: 512, Features: 8, Lo: 0, Hi: 1, UseID: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var X [][]float64
	var Y []int
	for i := 0; i < 64; i++ {
		x := make([]float64, 8)
		c := i % 2
		for j := range x {
			if (j < 4) == (c == 0) {
				x[j] = 0.9
			} else {
				x[j] = 0.1
			}
		}
		X = append(X, x)
		Y = append(Y, c)
	}
	return generic.NewPipeline(enc, 2), X, Y
}
