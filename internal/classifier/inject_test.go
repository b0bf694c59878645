package classifier_test

import (
	"testing"

	"github.com/edge-hdc/generic/internal/classifier"
	"github.com/edge-hdc/generic/internal/faults"
	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/rng"
)

// injectBitErrors corrupts m's class memory as Fig. 6 does: each stored bit
// flips independently with probability ber (the uniform fault model over
// faults.ClassMem), then the norms are refreshed. It returns the number of
// bits flipped.
func injectBitErrors(m *classifier.Model, ber float64, r *rng.Rand) int {
	inj, err := faults.Spec{Site: faults.SiteClass, Kind: faults.Uniform, Rate: ber}.Injector()
	if err != nil {
		panic(err) // every rate these tests use is in [0, 1]
	}
	n := inj.Apply(faults.ClassMem(m), r)
	m.RefreshAllNorms()
	return n
}

// fig6Sweep is the BER grid of the paper's Fig. 6 VOS experiment.
var fig6Sweep = []float64{1e-5, 1e-4, 1e-3, 1e-2, 5e-2, 1e-1}

func TestInjectBitErrorsZeroRate(t *testing.T) {
	r := rng.New(13)
	train, labels, _ := classifier.SyntheticEncoded(r, 256, 2, 5, 0.2)
	m, _ := classifier.MustTrain(t, train, labels, 2, classifier.Options{Epochs: 1})
	before := m.Class(0).Clone()
	if n := injectBitErrors(m, 0, rng.New(1)); n != 0 {
		t.Fatalf("BER=0 flipped %d bits", n)
	}
	for i := range before {
		if m.Class(0)[i] != before[i] {
			t.Fatal("BER=0 modified the model")
		}
	}
}

func TestInjectBitErrorsRateAndEffect(t *testing.T) {
	r := rng.New(15)
	train, labels, _ := classifier.SyntheticEncoded(r, 1024, 4, 20, 0.1)
	m, _ := classifier.MustTrain(t, train, labels, 4, classifier.Options{Epochs: 3, Seed: 1})
	m.Quantize(8)
	faulty := m.Clone()
	n := injectBitErrors(faulty, 0.05, rng.New(2))
	totalBits := 4 * 1024 * 8
	if n < totalBits*3/100 || n > totalBits*7/100 {
		t.Errorf("BER=5%%: flipped %d of %d bits", n, totalBits)
	}
	// Norms must be refreshed (match recomputation).
	for c := 0; c < 4; c++ {
		if faulty.Norm2(c) != faulty.Class(c).Norm2() {
			t.Errorf("class %d norms stale after injection", c)
		}
	}
	// Graceful degradation: moderate BER should not destroy a separable
	// model (HDC's error resilience).
	if acc := classifier.EvaluateDimsBatch(faulty, train, labels, faulty.D(), true, 1); acc < 0.8 {
		t.Errorf("accuracy %v under 5%% BER; expected HDC resilience", acc)
	}
}

func TestInjectBitErrorsBipolar(t *testing.T) {
	m := classifier.NewModel(256, 2, 16)
	pos, neg := hdc.NewVec(256), hdc.NewVec(256)
	for i := range pos {
		pos[i], neg[i] = 1, -1
	}
	m.SetClass(0, pos)
	m.SetClass(1, neg)
	m.Quantize(1)
	n := injectBitErrors(m, 0.5, rng.New(3))
	if n == 0 {
		t.Fatal("no flips at BER=0.5")
	}
	for c := 0; c < 2; c++ {
		for i, v := range m.Class(c) {
			if v != 1 && v != -1 {
				t.Fatalf("class %d dim %d = %d not bipolar after flips", c, i, v)
			}
		}
	}
}

// The same (ber, seed) on clones of the same model corrupts them
// bit-identically, at every bit-width and at every BER of the Fig. 6 sweep.
func TestInjectBitErrorsSeededDeterministic(t *testing.T) {
	for _, bw := range []int{16, 4, 1} {
		base := classifier.FaultModel(t, bw)
		for _, ber := range fig6Sweep {
			a, b := base.Clone(), base.Clone()
			na := injectBitErrors(a, ber, rng.New(0xfa117))
			nb := injectBitErrors(b, ber, rng.New(0xfa117))
			if na != nb {
				t.Fatalf("bw=%d ber=%g: flip counts differ (%d vs %d)", bw, ber, na, nb)
			}
			if !classifier.SameModel(a, b) {
				t.Fatalf("bw=%d ber=%g: corrupted models diverged", bw, ber)
			}
		}
	}
}

// Norms must be refreshed at every BER in the sweep: the stored norm2 after
// injection must equal a from-scratch recompute over the corrupted vectors.
func TestInjectBitErrorsRefreshesNorms(t *testing.T) {
	base := classifier.FaultModel(t, 16)
	for _, ber := range fig6Sweep {
		m := base.Clone()
		injectBitErrors(m, ber, rng.New(99))
		want := make([]int64, m.Classes())
		for c := range want {
			var s int64
			for _, v := range m.Class(c) {
				s += int64(v) * int64(v)
			}
			want[c] = s
		}
		for c := range want {
			if got := m.Norm2(c); got != want[c] {
				t.Fatalf("ber=%g class %d: stored norm2 %d, recomputed %d", ber, c, got, want[c])
			}
		}
	}
}

// Clone shares rows copy-on-write, so independence is a property of every
// writer: mutating a clone through any mutator never changes the original
// (or a clone of the clone), and mutating the original never changes its
// clones.
func TestCloneIndependence(t *testing.T) {
	const nC = 3
	r := rng.New(17)
	train, labels, _ := classifier.SyntheticEncoded(r, 256, nC, 5, 0.2)
	h := train[0]
	mutators := map[string]func(m *classifier.Model){
		"Update":     func(m *classifier.Model) { m.Update(h, 1, 0) },
		"Adapt":      func(m *classifier.Model) { pred, _, _ := m.PredictDimsMargin(h, m.D(), true); m.Adapt(h, (pred+1)%nC) },
		"AddEncoded": func(m *classifier.Model) { m.AddEncoded(h, 2) },
		"SetClass":   func(m *classifier.Model) { m.SetClass(1, h) },
		"Quantize":   func(m *classifier.Model) { m.Quantize(4) },
		"MaskDims":   func(m *classifier.Model) { m.MaskDims(1, 16) },
		"InjectBitErrors": func(m *classifier.Model) {
			injectBitErrors(m, 0.05, rng.New(3))
		},
		"MutableClass": func(m *classifier.Model) {
			m.MutableClass(2)[5] += 9
			m.RefreshAllNorms()
		},
		"SetNorm2Word": func(m *classifier.Model) { m.SetNorm2Word(0, 12345) },
	}
	for name, mutate := range mutators {
		t.Run(name+"/clone", func(t *testing.T) {
			m, _ := classifier.MustTrain(t, train, labels, nC, classifier.Options{Epochs: 1})
			c := m.Clone()
			grand := c.Clone()
			wantM, wantGrand := classifier.DeepCopy(m), classifier.DeepCopy(grand)
			mutate(c)
			if classifier.SameModel(c, wantM) {
				t.Fatal("mutator changed nothing; the test would prove nothing")
			}
			if !classifier.SameModel(m, wantM) {
				t.Fatal("mutating the clone changed the original")
			}
			if !classifier.SameModel(grand, wantGrand) {
				t.Fatal("mutating the clone changed the clone's clone")
			}
		})
		t.Run(name+"/original", func(t *testing.T) {
			m, _ := classifier.MustTrain(t, train, labels, nC, classifier.Options{Epochs: 1})
			c := m.Clone()
			want := classifier.DeepCopy(c)
			mutate(m)
			if classifier.SameModel(m, want) {
				t.Fatal("mutator changed nothing; the test would prove nothing")
			}
			if !classifier.SameModel(c, want) {
				t.Fatal("mutating the original changed the clone")
			}
		})
	}
}
