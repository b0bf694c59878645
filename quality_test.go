package generic_test

// Model-quality observability at the pipeline layer: drift-reference
// capture at Fit/Binarize, the PredictMargin surface, shadow-mode
// disagreement sampling, and Clone sharing the (immutable) quality state.

import (
	"testing"

	generic "github.com/edge-hdc/generic"
	"github.com/edge-hdc/generic/internal/quality"
	"github.com/edge-hdc/generic/internal/telemetry"
)

func TestFitCapturesQualityProfile(t *testing.T) {
	p, _ := trainedEEG(t)
	prof := p.QualityProfile()
	if prof == nil {
		t.Fatal("no quality profile after Fit")
	}
	if prof.Mode != "exact" {
		t.Fatalf("profile mode = %q, want exact", prof.Mode)
	}
	if prof.Samples == 0 || prof.Samples > 256 {
		t.Fatalf("profile samples = %d, want bounded (0,256]", prof.Samples)
	}
	var massM, massP float64
	for _, v := range prof.Margin {
		massM += v
	}
	for _, v := range prof.Priors {
		massP += v
	}
	if massM < 0.999 || massM > 1.001 || massP < 0.999 || massP > 1.001 {
		t.Fatalf("profile mass margin=%v priors=%v, want 1", massM, massP)
	}

	// Binarize rebases the reference onto the packed representation.
	if err := p.Binarize(); err != nil {
		t.Fatal(err)
	}
	bprof := p.QualityProfile()
	if bprof == nil || bprof.Mode != "binary" {
		t.Fatalf("post-Binarize profile = %+v, want binary mode", bprof)
	}
	if bprof == prof {
		t.Fatal("Binarize did not rebuild the profile")
	}
}

func TestPredictMarginMatchesPredict(t *testing.T) {
	p, ds := trainedEEG(t)
	for _, x := range ds.TestX[:32] {
		want, err := p.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		got, margin, err := p.PredictMargin(x)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("PredictMargin class %d != Predict class %d", got, want)
		}
		if margin < 0 || margin > 1 {
			t.Fatalf("margin %v out of [0,1]", margin)
		}
	}
}

func TestShadowSamplingTracksDisagreement(t *testing.T) {
	p, ds := trainedEEG(t)
	if err := p.Binarize(); err != nil {
		t.Fatal(err)
	}
	p.SetShadowSampling(1) // every binary predict is shadow-compared
	if p.ShadowEvery() != 1 {
		t.Fatalf("ShadowEvery = %d, want 1", p.ShadowEvery())
	}

	before, encodes := quality.Default.Total(), telemetry.EncodeNS.Count()
	const n = 64
	for _, x := range ds.TestX[:n] {
		if _, err := p.Predict(x); err != nil {
			t.Fatal(err)
		}
	}
	after := quality.Default.Total()
	if got := after.ShadowSamples - before.ShadowSamples; got != n {
		t.Fatalf("shadow samples delta = %d, want %d", got, n)
	}
	// The shadow re-score is not served traffic: it adds no quality predict
	// and its re-encode is not timed.
	if got := after.Predicts - before.Predicts; got != n {
		t.Fatalf("quality predicts delta = %d, want %d (shadow re-scores are not predicts)", got, n)
	}
	if got := telemetry.EncodeNS.Count() - encodes; got != n {
		t.Fatalf("encode_ns delta = %d, want %d (shadow re-encodes are not counted)", got, n)
	}
	// Disagreement is bounded by the sample count; the rate on a trained
	// model should be far from certain disagreement.
	dis := after.ShadowDisagree - before.ShadowDisagree
	if dis < 0 || dis > n {
		t.Fatalf("shadow disagreements = %d out of range [0,%d]", dis, n)
	}

	// Exact-mode predicts never shadow-sample.
	p.SetShadowSampling(0)
	before = quality.Default.Total()
	if _, err := p.Predict(ds.TestX[0]); err != nil {
		t.Fatal(err)
	}
	after = quality.Default.Total()
	if after.ShadowSamples != before.ShadowSamples {
		t.Fatal("shadow sampled while disabled")
	}
}

func TestShadowSamplingBatch(t *testing.T) {
	p, ds := trainedEEG(t)
	if err := p.Binarize(); err != nil {
		t.Fatal(err)
	}
	p.SetShadowSampling(4)
	before := quality.Default.Total()
	const n = 64
	if _, err := p.PredictAll(ds.TestX[:n]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.PredictAll(ds.TestX[:n], generic.WithWorkers(4)); err != nil {
		t.Fatal(err)
	}
	after := quality.Default.Total()
	if got, want := after.ShadowSamples-before.ShadowSamples, int64(2*n/4); got != want {
		t.Fatalf("batch shadow samples delta = %d, want %d (1 in 4)", got, want)
	}
}

func TestCloneSharesQualityState(t *testing.T) {
	p, _ := trainedEEG(t)
	p.SetShadowSampling(8)
	c := p.Clone()
	if c.QualityProfile() != p.QualityProfile() {
		t.Fatal("clone rebuilt the profile instead of sharing it")
	}
	if c.ShadowEvery() != 8 {
		t.Fatalf("clone shadowEvery = %d, want 8", c.ShadowEvery())
	}
}

// observed is the served-traffic record: the encode, score and adapt
// instruments plus the process quality observer's counts.
type observed struct {
	encodes, scores, adapts, updates         int64
	predicts, adaptEvals, adaptHits, shadows int64
}

func readObserved() observed {
	q := quality.Default.Total()
	return observed{
		encodes:    telemetry.EncodeNS.Count(),
		scores:     telemetry.PredictNS.Count(),
		adapts:     telemetry.AdaptNS.Count(),
		updates:    telemetry.AdaptUpdates.Value(),
		predicts:   q.Predicts,
		adaptEvals: q.AdaptEvals,
		adaptHits:  q.AdaptHits,
		shadows:    q.ShadowSamples,
	}
}

// since returns what was recorded between b and o.
func (o observed) since(b observed) observed {
	return observed{
		encodes:    o.encodes - b.encodes,
		scores:     o.scores - b.scores,
		adapts:     o.adapts - b.adapts,
		updates:    o.updates - b.updates,
		predicts:   o.predicts - b.predicts,
		adaptEvals: o.adaptEvals - b.adaptEvals,
		adaptHits:  o.adaptHits - b.adaptHits,
		shadows:    o.shadows - b.shadows,
	}
}

// TestObservationContract pins where served traffic is recorded: the
// Pipeline's predict and adapt paths count each sample exactly once, and
// training, calibration and direct encoder or kernel calls count nothing.
func TestObservationContract(t *testing.T) {
	before := readObserved()
	p, ds := trainedEEG(t)
	h := make(generic.Hypervector, p.Encoder().D())
	p.Encoder().Encode(ds.TestX[0], h)
	p.Model().PredictDimsMargin(h, len(h), true)
	p.Model().Clone().Adapt(h, ds.TestY[0])
	if err := p.Clone().Binarize(); err != nil {
		t.Fatal(err)
	}
	if got := readObserved().since(before); got != (observed{}) {
		t.Fatalf("Fit, Binarize and direct encoder/kernel calls recorded %+v, want nothing", got)
	}

	X, Y := ds.TestX[:16], ds.TestY[:16]
	before = readObserved()
	for _, x := range X {
		must(p.Predict(x))
	}
	must(p.PredictAll(X, generic.WithWorkers(4)))
	if got, want := readObserved().since(before), (observed{encodes: 32, scores: 32, predicts: 32}); got != want {
		t.Fatalf("16 Predict + PredictAll of 16 recorded %+v, want %+v", got, want)
	}
	before = readObserved()
	must(p.Accuracy(X, Y))
	if got, want := readObserved().since(before), (observed{encodes: 16, scores: 16, predicts: 16}); got != want {
		t.Fatalf("Accuracy of 16 recorded %+v, want %+v", got, want)
	}

	before = readObserved()
	var hits, updates int64
	for i, x := range X {
		pred, updated, err := p.Adapt(x, Y[i])
		if err != nil {
			t.Fatal(err)
		}
		if pred == Y[i] {
			hits++
		}
		if updated {
			updates++
		}
	}
	want := observed{encodes: 16, adapts: 16, updates: updates, adaptEvals: 16, adaptHits: hits}
	if got := readObserved().since(before); got != want {
		t.Fatalf("16 Adapt recorded %+v, want %+v (no predict_ns, no margin sample)", got, want)
	}
}
