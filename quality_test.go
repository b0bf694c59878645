package generic_test

// Model-quality observability at the pipeline layer: drift-reference
// capture at Fit/Binarize, the PredictMargin surface, shadow-mode
// disagreement sampling, and Clone sharing the (immutable) quality state;
// and the observation contract: which Pipeline calls record which
// instruments and spans.

import (
	"slices"
	"strings"
	"testing"

	generic "github.com/edge-hdc/generic"
	"github.com/edge-hdc/generic/internal/classifier"
	"github.com/edge-hdc/generic/internal/encoding"
	"github.com/edge-hdc/generic/internal/perf"
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

// maintained is the training and fault-repair record: the fit_* and
// fault/scrub counters.
type maintained struct {
	fits, epochs, samples, updates       int64
	injections, bits, scrubs, scrubTimes int64
}

func readMaintained() maintained {
	return maintained{
		fits:       telemetry.FitNS.Count(),
		epochs:     telemetry.FitEpochs.Value(),
		samples:    telemetry.FitSamples.Value(),
		updates:    telemetry.FitUpdates.Value(),
		injections: telemetry.FaultInjections.Value(),
		bits:       telemetry.FaultBits.Value(),
		scrubs:     telemetry.Scrubs.Value(),
		scrubTimes: telemetry.ScrubNS.Count(),
	}
}

// since returns what was recorded between b and m.
func (m maintained) since(b maintained) maintained {
	return maintained{
		fits:       m.fits - b.fits,
		epochs:     m.epochs - b.epochs,
		samples:    m.samples - b.samples,
		updates:    m.updates - b.updates,
		injections: m.injections - b.injections,
		bits:       m.bits - b.bits,
		scrubs:     m.scrubs - b.scrubs,
		scrubTimes: m.scrubTimes - b.scrubTimes,
	}
}

// TestObservationContractFitAndFaults pins where training and fault repair
// are recorded: each Pipeline Fit, InjectFaults and Scrub exactly once, from
// the result it returns, and a direct classifier.Train, EncodeAllWorkers or
// accelerator fault pass not at all.
func TestObservationContractFitAndFaults(t *testing.T) {
	ds, err := generic.LoadDataset("EEG", 1)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := generic.EncoderForDataset(generic.Generic, ds, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	X, Y := ds.TrainX[:300], ds.TrainY[:300]
	for _, trainer := range generic.Trainers() {
		p := generic.NewPipeline(enc, ds.Classes, generic.WithTrainer(trainer))
		before := readMaintained()
		res, err := p.Fit(X, Y, generic.TrainOptions{Epochs: 3, Seed: 1, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var updates int64
		for _, e := range res.Epochs {
			updates += int64(e.Updates)
		}
		want := maintained{fits: 1, epochs: int64(res.EpochsRun), samples: int64(len(X)), updates: updates}
		if got := readMaintained().since(before); got != want {
			t.Fatalf("%s: one Fit recorded %+v, want %+v", trainer, got, want)
		}
		if got, want := telemetry.FitLossMicro.Value(), int64(res.FinalLoss*1e6); got != want {
			t.Fatalf("%s: fit_loss_micro = %d, want %d", trainer, got, want)
		}
	}

	p, _ := trainedEEG(t)
	before := readMaintained()
	bits, err := p.InjectFaults(generic.FaultSpec{Site: generic.FaultSiteClass, Kind: generic.FaultBankFail, Lane: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := readMaintained().since(before), (maintained{injections: 1, bits: int64(bits)}); got != want || bits == 0 {
		t.Fatalf("one InjectFaults of %d bits recorded %+v, want %+v", bits, got, want)
	}
	if got := telemetry.FaultPending.Value(); got != 1 {
		t.Fatalf("fault_pending = %d after one injection, want 1", got)
	}
	before = readMaintained()
	if _, err := p.Scrub(); err != nil {
		t.Fatal(err)
	}
	if got, want := readMaintained().since(before), (maintained{scrubs: 1, scrubTimes: 1}); got != want {
		t.Fatalf("one Scrub recorded %+v, want %+v", got, want)
	}
	h := must(p.Health())
	if telemetry.FaultPending.Value() != 0 || telemetry.FaultMaskedLanes.Value() != int64(len(h.MaskedLanes)) {
		t.Fatalf("after Scrub fault_pending = %d, fault_masked_lanes = %d, want 0, %d",
			telemetry.FaultPending.Value(), telemetry.FaultMaskedLanes.Value(), len(h.MaskedLanes))
	}

	before = readMaintained()
	encoded := encoding.EncodeAllWorkers(enc, X, 2)
	if _, _, err := classifier.Train(encoded, Y, ds.Classes, classifier.Options{Epochs: 2, Seed: 1}, nil); err != nil {
		t.Fatal(err)
	}
	acc, err := generic.NewAccelerator(generic.Spec{
		D: 1024, Features: ds.Features, N: 3, Classes: ds.Classes,
		BW: 16, UseID: ds.UseID, Mode: generic.ModeTrain,
	}, 1, ds.Lo, ds.Hi)
	if err != nil {
		t.Fatal(err)
	}
	acc.Train(X[:100], Y[:100], 2)
	if _, err := acc.InjectFaults(generic.FaultSpec{Site: generic.FaultSiteClass, Kind: generic.FaultBankFail, Lane: 5, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	acc.Scrub()
	if got := readMaintained().since(before); got != (maintained{}) {
		t.Fatalf("direct EncodeAllWorkers, classifier.Train and accelerator faults recorded %+v, want nothing", got)
	}
}

// TestSpanTree pins the traced shape of training and repair: a Fit (either
// strategy) and a Scrub each record one root span, every trainer span hangs
// off Fit's train span, and no package under the Pipeline opens a root of
// its own — a direct batch encode or batch score under an enabled tracer
// records nothing.
func TestSpanTree(t *testing.T) {
	perf.Reset()
	perf.Enable()
	defer func() {
		perf.Disable()
		perf.Reset()
	}()
	ds, err := generic.LoadDataset("EEG", 1)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := generic.EncoderForDataset(generic.Generic, ds, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	X, Y := ds.TrainX[:300], ds.TrainY[:300]
	trainerSpans := map[string][]string{
		"perceptron": {"fit.init", "fit.epoch"},
		"lehdc":      {"fit.init", "fit.epoch.lehdc", "fit.quantize"},
	}
	for _, trainer := range generic.Trainers() {
		perf.Reset()
		p := generic.NewPipeline(enc, ds.Classes, generic.WithTrainer(trainer))
		must(p.Fit(X, Y, generic.TrainOptions{Epochs: 2, Seed: 1, Workers: 2}))
		must(p.InjectFaults(generic.FaultSpec{Site: generic.FaultSiteClass, Kind: generic.FaultBankFail, Lane: 5, Seed: 3}))
		must(p.Scrub())
		p.Model().PredictDimsBatch(generic.EncodeWorkers(enc, X, 2), enc.D(), true, 2)

		recs := perf.Snapshot()
		names := make(map[uint64]string, len(recs))
		for _, r := range recs {
			names[r.ID] = r.Name
		}
		var roots []string
		seen := map[string]bool{}
		for _, r := range recs {
			seen[r.Name] = true
			if r.Parent == 0 {
				roots = append(roots, r.Name)
			}
			if strings.HasPrefix(r.Name, "fit.") && names[r.Parent] != "train" {
				t.Errorf("%s: span %s has parent %q, want train", trainer, r.Name, names[r.Parent])
			}
		}
		if !slices.Equal(roots, []string{"pipeline.fit", "pipeline.scrub"}) {
			t.Errorf("%s: root spans %v, want [pipeline.fit pipeline.scrub]", trainer, roots)
		}
		for _, name := range trainerSpans[trainer] {
			if !seen[name] {
				t.Errorf("%s: no %s span", trainer, name)
			}
		}
		for _, name := range []string{"encode.batch", "fit", "faults.scrub", "score.batch"} {
			if seen[name] {
				t.Errorf("%s: retired span %s recorded", trainer, name)
			}
		}
	}
}
