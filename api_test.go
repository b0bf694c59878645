package generic_test

import (
	"bytes"
	"fmt"
	"math"
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
		{"NaN feature", 2, [][]float64{{0, 0, 1, 1}, {1, math.NaN(), 0, 0}}, []int{0, 1}, "Fit: sample 1 feature 1: non-finite value NaN"},
		{"+Inf feature", 2, [][]float64{{0, 0, 1, math.Inf(1)}, {1, 1, 0, 0}}, []int{0, 1}, "Fit: sample 0 feature 3: non-finite value +Inf"},
		{"-Inf feature", 2, [][]float64{{0, 0, 1, 1}, {math.Inf(-1), 1, 0, 0}}, []int{0, 1}, "Fit: sample 1 feature 0: non-finite value -Inf"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := generic.NewPipeline(enc, tc.classes)
			res, err := p.Fit(tc.X, tc.Y, generic.TrainOptions{Epochs: 2, Seed: 1})
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("Fit err = %v, want substring %q", err, tc.wantSub)
			}
			if res.EpochsRun != 0 {
				t.Errorf("failed Fit reported %d epochs", res.EpochsRun)
			}
			if p.Model() != nil {
				t.Error("failed Fit installed a model")
			}
		})
	}
}

// TestFitReturnsEpochs checks Fit's training record: the number of
// retraining epochs actually run, bounded by the request, with one
// per-epoch entry each.
func TestFitReturnsEpochs(t *testing.T) {
	p, X, Y := trainableProblem(t)
	res, err := p.Fit(X, Y, generic.TrainOptions{Epochs: 7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.EpochsRun < 1 || res.EpochsRun > 7 || len(res.Epochs) != res.EpochsRun {
		t.Fatalf("Fit ran %d epochs (%d recorded), want within [1,7]", res.EpochsRun, len(res.Epochs))
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

// TestPredictShapeValidation: a wrong feature width or a non-finite feature
// is an error at every inference entry point, not an encoding panic or a
// silent answer; Adapt also rejects labels outside the class range.
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
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := append([]float64(nil), X[0]...)
		bad[5] = v
		want := fmt.Sprintf("feature 5: non-finite value %v", v)
		if _, err := p.Predict(bad); err == nil || !strings.Contains(err.Error(), "Predict: input "+want) {
			t.Errorf("Predict with %v: err = %v", v, err)
		}
		if _, _, err := p.PredictMargin(bad); err == nil || !strings.Contains(err.Error(), "PredictMargin: input "+want) {
			t.Errorf("PredictMargin with %v: err = %v", v, err)
		}
		if _, err := p.PredictAll([][]float64{X[0], bad}); err == nil || !strings.Contains(err.Error(), "sample 1 "+want) {
			t.Errorf("PredictAll with %v: err = %v", v, err)
		}
		if _, err := p.Accuracy([][]float64{bad}, []int{0}); err == nil || !strings.Contains(err.Error(), "sample 0 "+want) {
			t.Errorf("Accuracy with %v: err = %v", v, err)
		}
	}
	if _, _, err := p.Adapt(X[0], Y[0]); err != nil {
		t.Errorf("valid Adapt errored: %v", err)
	}
}

// TestAdaptRejectsNonFinite: an Adapt on a row with a NaN or ±Inf feature
// is an error and leaves the model as it was. Each row is labelled against
// its own prediction, so the update would happen if the row were accepted.
func TestAdaptRejectsNonFinite(t *testing.T) {
	p, X, Y := trainableProblem(t)
	if _, err := p.Fit(X, Y, generic.TrainOptions{Epochs: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := p.Save(&before); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := append([]float64(nil), X[0]...)
		bad[2] = v
		pred, updated, err := p.Adapt(bad, 1-Y[0])
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("Adapt: input feature 2: non-finite value %v", v)) {
			t.Errorf("Adapt with %v = (%d, %v, %v), want a non-finite error", v, pred, updated, err)
		}
		if updated {
			t.Errorf("Adapt with %v reported an update", v)
		}
	}
	var after bytes.Buffer
	if err := p.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("a rejected Adapt changed the model")
	}
}

// TestClusterValidation: a cluster count outside [1, len(X)] or a row of the
// wrong width is an error from Cluster, never a panic from clustering.
func TestClusterValidation(t *testing.T) {
	p, X, _ := trainableProblem(t)
	enc := p.Encoder()
	narrow := append(append([][]float64{}, X[:3]...), []float64{1, 2, 3})
	wide := append(append([][]float64{}, X[:3]...), make([]float64, 9))
	cases := []struct {
		name    string
		X       [][]float64
		k       int
		wantSub string
	}{
		{"k zero", X, 0, "k=0 out of range"},
		{"k negative", X, -2, "k=-2 out of range"},
		{"k above n", X[:4], 5, "k=5 out of range [1,4]"},
		{"empty set", nil, 1, "k=1 out of range [1,0]"},
		{"narrow row", narrow, 2, "sample 3 has 3 features, encoder expects 8"},
		{"wide row", wide, 2, "sample 3 has 9 features, encoder expects 8"},
		{"NaN feature", withFeature(X[:4], 2, 6, math.NaN()), 2, "Cluster: sample 2 feature 6: non-finite value NaN"},
		{"+Inf feature", withFeature(X[:4], 0, 0, math.Inf(1)), 2, "Cluster: sample 0 feature 0: non-finite value +Inf"},
		{"-Inf feature", withFeature(X[:4], 3, 7, math.Inf(-1)), 2, "Cluster: sample 3 feature 7: non-finite value -Inf"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Cluster panicked: %v", r)
				}
			}()
			res, err := generic.Cluster(enc, tc.X, tc.k, 3, generic.WithWorkers(2))
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) || res != nil {
				t.Fatalf("Cluster = (%v, %v), want nil and an error containing %q", res, err, tc.wantSub)
			}
		})
	}
	if res, err := generic.Cluster(enc, X, 2, 0); err != nil || res.Epochs != 1 {
		t.Fatalf("Cluster with 0 epochs = (%+v, %v), want one epoch run", res, err)
	}
}

// withFeature returns a copy of X whose sample i has feature j set to v.
func withFeature(X [][]float64, i, j int, v float64) [][]float64 {
	out := append([][]float64(nil), X...)
	out[i] = append([]float64(nil), X[i]...)
	out[i][j] = v
	return out
}

func TestKMeansValidation(t *testing.T) {
	cases := []struct {
		name    string
		X       [][]float64
		k       int
		wantSub string
	}{
		{"k above n", [][]float64{{0}, {1}}, 5, "k=5 out of range [1,2]"},
		{"k zero", [][]float64{{0}, {1}}, 0, "k=0 out of range"},
		{"empty set", nil, 1, "k=1 out of range [1,0]"},
		{"ragged rows", [][]float64{{0, 0}, {1}, {2, 2}}, 2, "sample 1 has 1 features, sample 0 has 2"},
		{"NaN feature", [][]float64{{math.NaN()}, {1}, {2}}, 2, "sample 0 feature 0: non-finite value NaN"},
		{"+Inf feature", [][]float64{{0, 1}, {1, math.Inf(1)}, {2, 2}}, 2, "sample 1 feature 1: non-finite value +Inf"},
		{"-Inf feature", [][]float64{{0}, {1}, {math.Inf(-1)}}, 2, "sample 2 feature 0: non-finite value -Inf"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("KMeans panicked: %v", r)
				}
			}()
			res, err := generic.KMeans(tc.X, tc.k, 10, 1, 1)
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) || res != nil {
				t.Fatalf("KMeans = (%v, %v), want nil and an error containing %q", res, err, tc.wantSub)
			}
		})
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
