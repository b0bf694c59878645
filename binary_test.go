package generic_test

// Binary inference engine: the golden equivalence contract (binary == exact
// on a sign-binarized model, bit-identically) and the mode API's error
// surface.

import (
	"bytes"
	"errors"
	"testing"

	generic "github.com/edge-hdc/generic"
	"github.com/edge-hdc/generic/internal/hdc"
)

// trainedEEG builds a small trained pipeline shared by the mode-API tests.
func trainedEEG(t testing.TB) (*generic.Pipeline, *generic.Dataset) {
	t.Helper()
	ds, err := generic.LoadDataset("EEG", 1)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := generic.EncoderForDataset(generic.Generic, ds, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := generic.NewPipeline(enc, ds.Classes)
	if _, err := p.Fit(ds.TrainX[:400], ds.TrainY[:400], generic.TrainOptions{Epochs: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	return p, ds
}

// TestBinaryGoldenEquivalence is the acceptance contract: on every
// benchmark, the packed engine predicts bit-identically to the integer
// engine run on the same sign-binarized data — model counters collapsed by
// Quantize(1), query collapsed to its signs. On bipolar vectors the
// modified-cosine ranking degenerates to the dot ranking, which is exactly
// min-Hamming (dot = D − 2·hamming) with the same lowest-index tie-break,
// so there is no tolerance here. (Binary mode is NOT expected to match the
// exact path on the un-binarized query — collapsing the query's magnitudes
// is precisely what the representation trades away.)
func TestBinaryGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("trains on all 11 benchmarks")
	}
	for _, name := range generic.Datasets() {
		name := name
		t.Run(name, func(t *testing.T) {
			ds, err := generic.LoadDataset(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := generic.EncoderForDataset(generic.Generic, ds, 512, 1)
			if err != nil {
				t.Fatal(err)
			}
			p := generic.NewPipeline(enc, ds.Classes)
			if _, err := p.Fit(ds.TrainX, ds.TrainY, generic.TrainOptions{Epochs: 2, Seed: 1}); err != nil {
				t.Fatal(err)
			}

			// The reference: the integer scoring path on sign-binarized
			// counters and a sign-binarized query. Same config + seed gives a
			// reference encoder with bit-identical material.
			refModel := p.Model().Clone()
			refModel.Quantize(1)
			refEnc, err := generic.EncoderForDataset(generic.Generic, ds, 512, 1)
			if err != nil {
				t.Fatal(err)
			}

			if err := p.Binarize(); err != nil {
				t.Fatal(err)
			}
			n := len(ds.TestX)
			if n > 200 {
				n = 200
			}
			h := hdc.NewVec(refEnc.D())
			bq := hdc.NewBinVec(refEnc.D())
			q := hdc.NewVec(refEnc.D())
			for i := 0; i < n; i++ {
				refEnc.Encode(ds.TestX[i], h)
				bq.PackSigns(h)
				bq.Unpack(q)
				want, _, _ := refModel.PredictDimsMargin(q, refModel.D(), true)
				got := must(p.Predict(ds.TestX[i]))
				if got != want {
					t.Fatalf("sample %d: binary %d, sign-binarized integer reference %d", i, got, want)
				}
			}
		})
	}
}

func TestModeAPIErrors(t *testing.T) {
	p, ds := trainedEEG(t)
	x := ds.TestX[0]

	// Binary before the mode transition is a caller error, not a panic.
	if _, err := p.Predict(x, generic.WithMode(generic.Binary)); !errors.Is(err, generic.ErrNotBinarized) {
		t.Fatalf("Predict binary before Binarize: err = %v, want ErrNotBinarized", err)
	}
	if _, err := p.Accuracy(ds.TestX[:4], ds.TestY[:4], generic.WithMode(generic.Binary)); !errors.Is(err, generic.ErrNotBinarized) {
		t.Fatalf("Accuracy binary before Binarize: err = %v, want ErrNotBinarized", err)
	}
	if err := p.PredictAllInto(make([]int, 4), ds.TestX[:4], generic.WithMode(generic.Binary)); !errors.Is(err, generic.ErrNotBinarized) {
		t.Fatalf("PredictAllInto binary before Binarize: err = %v, want ErrNotBinarized", err)
	}
	if _, err := p.Predict(x, generic.WithMode(generic.Mode(99))); err == nil {
		t.Fatal("unknown inference mode accepted")
	}

	// Before the transition the pipeline reports and defaults to Exact.
	if p.Binarized() || p.Mode() != generic.Exact {
		t.Fatalf("untransitioned pipeline: Binarized=%v Mode=%v", p.Binarized(), p.Mode())
	}
	if err := p.Binarize(); err != nil {
		t.Fatal(err)
	}
	if !p.Binarized() || p.Mode() != generic.Binary {
		t.Fatalf("after Binarize: Binarized=%v Mode=%v", p.Binarized(), p.Mode())
	}
	// Exact stays reachable per call; the default now takes the binary path.
	d := must(p.Predict(x))
	b := must(p.Predict(x, generic.WithMode(generic.Binary)))
	if d != b {
		t.Fatalf("default mode after Binarize predicted %d, explicit Binary %d", d, b)
	}
	if _, err := p.Predict(x, generic.WithMode(generic.Exact)); err != nil {
		t.Fatalf("exact-mode override on a binarized pipeline: %v", err)
	}
}

// TestBinaryBatchDeterminism: the binary batch path is bit-identical across
// worker counts and across repeated runs (this is the -race suite's meat:
// pooled per-goroutine states must not share scratch).
func TestBinaryBatchDeterminism(t *testing.T) {
	p, ds := trainedEEG(t)
	if err := p.Binarize(); err != nil {
		t.Fatal(err)
	}
	X := ds.TestX[:256]
	ref := must(p.PredictAll(X, generic.WithWorkers(1)))
	for _, workers := range []int{1, 2, 4, 0} {
		for rep := 0; rep < 3; rep++ {
			got := must(p.PredictAll(X, generic.WithWorkers(workers)))
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("workers=%d rep %d: sample %d predicted %d, serial reference %d",
						workers, rep, i, got[i], ref[i])
				}
			}
		}
	}
	// Accuracy agrees with counting the batch predictions.
	correct := 0
	for i := range ref {
		if ref[i] == ds.TestY[i] {
			correct++
		}
	}
	want := float64(correct) / float64(len(ref))
	if acc := must(p.Accuracy(X, ds.TestY[:256], generic.WithWorkers(3))); acc != want {
		t.Fatalf("binary Accuracy %v, batch count %v", acc, want)
	}
}

// TestBinaryWithDimsMatchesExactRounding: reduced-dimension binary
// prediction applies the same sub-norm chunk rounding as the exact path —
// checked against the integer engine's PredictDims on sign-binarized data,
// at aligned, unaligned, sub-chunk, and over-D widths.
func TestBinaryWithDimsMatchesExactRounding(t *testing.T) {
	p, ds := trainedEEG(t)
	refModel := p.Model().Clone()
	refModel.Quantize(1)
	refEnc, err := generic.EncoderForDataset(generic.Generic, ds, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Binarize(); err != nil {
		t.Fatal(err)
	}
	h := hdc.NewVec(refEnc.D())
	bq := hdc.NewBinVec(refEnc.D())
	q := hdc.NewVec(refEnc.D())
	for _, dims := range []int{1, 63, 64, 100, 512, 1000, 1024, 5000} {
		for i := 0; i < 32; i++ {
			refEnc.Encode(ds.TestX[i], h)
			bq.PackSigns(h)
			bq.Unpack(q)
			wantDims := dims
			if wantDims > refEnc.D() {
				wantDims = refEnc.D()
			}
			want, _, _ := refModel.PredictDimsMargin(q, wantDims, true)
			got := must(p.Predict(ds.TestX[i], generic.WithDims(dims)))
			if got != want {
				t.Fatalf("dims=%d sample %d: binary %d, sign-binarized integer reference %d", dims, i, got, want)
			}
		}
	}
}

// TestBinarizedSaveLoad: the v4 model file round-trips the representation —
// a binarized pipeline loads back binarized, in Binary mode, predicting
// identically; a plain save stays exact.
func TestBinarizedSaveLoad(t *testing.T) {
	p, ds := trainedEEG(t)
	if err := p.Binarize(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := generic.LoadPipeline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Binarized() || got.Mode() != generic.Binary {
		t.Fatalf("loaded pipeline: Binarized=%v Mode=%v, want true/Binary", got.Binarized(), got.Mode())
	}
	for i := 0; i < 64; i++ {
		want := must(p.Predict(ds.TestX[i]))
		have := must(got.Predict(ds.TestX[i]))
		if have != want {
			t.Fatalf("sample %d: loaded binarized pipeline predicted %d, original %d", i, have, want)
		}
	}

	// A never-binarized pipeline round-trips as exact.
	plain, _ := trainedEEG(t)
	buf.Reset()
	if err := plain.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got, err = generic.LoadPipeline(&buf); err != nil || got.Binarized() || got.Mode() != generic.Exact {
		t.Fatalf("plain round trip: Binarized=%v Mode=%v err=%v", got.Binarized(), got.Mode(), err)
	}
}
