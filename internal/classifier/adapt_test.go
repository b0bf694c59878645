package classifier

import (
	"testing"

	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/rng"
)

func TestAdaptNoUpdateWhenCorrect(t *testing.T) {
	r := rng.New(1)
	train, labels, _ := syntheticEncoded(r, 512, 2, 10, 0.1)
	m, _ := mustTrain(t, train, labels, 2, Options{Epochs: 3, Seed: 1})
	before := m.Class(0).Clone()
	pred, updated := m.Adapt(train[0], labels[0])
	if pred != labels[0] {
		t.Fatalf("separable sample mispredicted: %d vs %d", pred, labels[0])
	}
	if updated {
		t.Fatal("Adapt updated on a correct prediction")
	}
	for i := range before {
		if m.Class(0)[i] != before[i] {
			t.Fatal("model changed despite no update")
		}
	}
}

func TestAdaptCorrectsMislabeledRegion(t *testing.T) {
	// Start with an empty-ish model and feed a stream: Adapt must converge
	// to classify the stream correctly.
	r := rng.New(2)
	protos := make([]hdc.Vec, 3)
	for c := range protos {
		p := hdc.NewVec(512)
		for i := range p {
			if r.Bool() {
				p[i] = 1
			} else {
				p[i] = -1
			}
		}
		protos[c] = p
	}
	m := NewModel(512, 3, 16)
	// Seed each class with one noisy example (cold start).
	for c, p := range protos {
		m.AddEncoded(p, c)
	}
	// Stream: noisy prototype copies; count errors over time.
	errorsFirst, errorsLast := 0, 0
	const steps = 300
	for s := 0; s < steps; s++ {
		c := r.Intn(3)
		v := protos[c].Clone()
		for i := range v {
			if r.Float64() < 0.3 {
				v[i] = -v[i]
			}
		}
		pred, _ := m.Adapt(v, c)
		if pred != c {
			if s < steps/3 {
				errorsFirst++
			} else if s >= 2*steps/3 {
				errorsLast++
			}
		}
	}
	if errorsLast > errorsFirst {
		t.Errorf("online adaptation did not improve: %d early errors vs %d late", errorsFirst, errorsLast)
	}
}

func TestAdaptTracksDrift(t *testing.T) {
	// Concept drift: class prototypes swap mid-stream. Adapt must recover.
	r := rng.New(3)
	a := hdc.NewVec(1024)
	b := hdc.NewVec(1024)
	for i := range a {
		if r.Bool() {
			a[i] = 1
		} else {
			a[i] = -1
		}
		if r.Bool() {
			b[i] = 1
		} else {
			b[i] = -1
		}
	}
	m := NewModel(1024, 2, 16)
	m.AddEncoded(a, 0)
	m.AddEncoded(b, 1)
	noisy := func(p hdc.Vec) hdc.Vec {
		v := p.Clone()
		for i := range v {
			if r.Float64() < 0.15 {
				v[i] = -v[i]
			}
		}
		return v
	}
	// Phase 1: prototypes as labelled.
	for s := 0; s < 100; s++ {
		m.Adapt(noisy(a), 0)
		m.Adapt(noisy(b), 1)
	}
	// Drift: the semantics swap — a-like inputs are now class 1.
	recovered := 0
	const phase2 = 200
	for s := 0; s < phase2; s++ {
		m.Adapt(noisy(a), 1)
		m.Adapt(noisy(b), 0)
		if s >= phase2-50 {
			if p, _, _ := m.PredictDimsMargin(noisy(a), m.D(), true); p == 1 {
				recovered++
			}
		}
	}
	if recovered < 40 {
		t.Errorf("model failed to track drift: only %d/50 late predictions correct", recovered)
	}
}
