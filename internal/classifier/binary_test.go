package classifier

import (
	"testing"

	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/rng"
)

// trainSmall builds a trained integer model plus a packed query set from the
// synthetic separable problem.
func trainSmall(t *testing.T, seed uint64, d, nC int) (*Model, []hdc.Vec, []int) {
	t.Helper()
	r := rng.New(seed)
	train, labels, _ := syntheticEncoded(r, d, nC, 12, 0.15)
	m, _ := mustTrain(t, train, labels, nC, Options{Epochs: 3})
	return m, train, labels
}

func packAll(vecs []hdc.Vec, d int) []*hdc.BinVec {
	out := make([]*hdc.BinVec, len(vecs))
	for i, v := range vecs {
		b := hdc.NewBinVec(d)
		b.PackSigns(v)
		out[i] = b
	}
	return out
}

func TestBinarizeProvenance(t *testing.T) {
	const d, nC = 256, 3
	m, _, _ := trainSmall(t, 1, d, nC)
	b := Binarize(m)
	if b.D() != d || b.Classes() != nC {
		t.Fatalf("binary model shape %dx%d, want %dx%d", b.Classes(), b.D(), nC, d)
	}
	if b.SourceBW() != m.BW() {
		t.Fatalf("SourceBW = %d, want %d", b.SourceBW(), m.BW())
	}
	// Binarize must not touch the source model.
	for c := 0; c < nC; c++ {
		bv := hdc.NewBinVec(d)
		bv.PackSigns(m.Class(c))
		if !b.Class(c).Equal(bv) {
			t.Fatalf("class %d packed bits differ from sign of counters", c)
		}
	}
}

// TestBinaryPredictMatchesQuantizedExact is the package-level equivalence
// core: on a sign-binarized model, min-Hamming prediction over packed
// queries must match the integer path run on a Quantize(1) copy of the same
// model, for full and reduced dimensions.
func TestBinaryPredictMatchesQuantizedExact(t *testing.T) {
	const d, nC = 512, 4
	m, train, _ := trainSmall(t, 2, d, nC)
	b := Binarize(m)

	q1 := m.Clone()
	q1.Quantize(1)

	queries := packAll(train, d)
	for _, dims := range []int{d, d / 2, SubNormGranularity, 1} {
		for i, q := range queries {
			wantC, _, _ := q1.PredictDimsMargin(train[i], dims, true)
			gotC, _, _ := b.PredictDimsMargin(q, dims)
			if gotC != wantC {
				t.Fatalf("dims=%d query %d: binary %d, quantized exact %d", dims, i, gotC, wantC)
			}
		}
	}
}

func TestBinaryPredictHammingValue(t *testing.T) {
	const d, nC = 256, 2
	m, _, _ := trainSmall(t, 3, d, nC)
	b := Binarize(m)
	q := b.Class(1).Clone()
	c, h, _ := b.PredictDimsMargin(q, d)
	if h != 0 {
		t.Fatalf("predicting a class vector itself: hamming %d, want 0", h)
	}
	// Ties break toward the lower index, so class 1 wins only if class 0
	// differs from it.
	if b.Class(0).Equal(b.Class(1)) {
		t.Skip("degenerate model: classes binarized identically")
	}
	if c != 1 {
		t.Fatalf("predicted %d, want 1", c)
	}
}

func TestRebinarizeClass(t *testing.T) {
	const d, nC = 256, 3
	m, train, _ := trainSmall(t, 4, d, nC)
	b := Binarize(m)
	// Drift class 2 on the integer model, then rebinarize just that class.
	m.Update(train[0], 2, 1)
	m.Update(train[1], 2, 1)
	b.RebinarizeClass(m, 2)
	for c := 0; c < nC; c++ {
		want := hdc.NewBinVec(d)
		want.PackSigns(m.Class(c))
		if c == 1 {
			// Class 1 was the "wrong" side of the updates; its packed copy is
			// intentionally stale until its own rebinarize.
			continue
		}
		if !b.Class(c).Equal(want) {
			t.Fatalf("class %d stale after RebinarizeClass", c)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RebinarizeClass across dimensionalities did not panic")
			}
		}()
		b.RebinarizeClass(NewModel(128, nC, 0), 0)
	}()
}

func TestBinaryBatchMatchesSingle(t *testing.T) {
	const d, nC = 512, 4
	m, train, labels := trainSmall(t, 5, d, nC)
	b := Binarize(m)
	queries := packAll(train, d)
	want := make([]int, len(queries))
	for i, q := range queries {
		want[i], _, _ = b.PredictDimsMargin(q, d)
	}
	// BinaryAccuracy agrees with counting single predictions.
	correct := 0
	for i := range want {
		if want[i] == labels[i] {
			correct++
		}
	}
	wantAcc := float64(correct) / float64(len(want))
	for _, workers := range []int{1, 3} {
		if acc := BinaryAccuracy(b, queries, labels, workers); acc != wantAcc {
			t.Fatalf("workers=%d: BinaryAccuracy %v, want %v", workers, acc, wantAcc)
		}
	}
}

func TestBinaryCloneIndependence(t *testing.T) {
	m, _, _ := trainSmall(t, 7, 256, 3)
	b := Binarize(m)
	c := b.Clone()
	if c.D() != b.D() || c.Classes() != b.Classes() || c.SourceBW() != b.SourceBW() {
		t.Fatal("clone metadata differs")
	}
	c.MutableClass(0).SetBit(0, 1-c.Class(0).Bit(0))
	if b.Class(0).Equal(c.Class(0)) {
		t.Fatal("mutating clone affected original")
	}

	// The reverse direction, through the adaptation hook: rebinarizing the
	// original from a changed integer model must leave the clone's packed
	// row as it was.
	c = b.Clone()
	want := c.Class(1).Clone()
	m2 := m.Clone()
	m2.MutableClass(1)[0] = -m2.Class(1)[0] - 1
	b.RebinarizeClass(m2, 1)
	if b.Class(1).Equal(want) {
		t.Fatal("RebinarizeClass changed nothing; the test would prove nothing")
	}
	if !c.Class(1).Equal(want) {
		t.Fatal("rebinarizing the original affected the clone")
	}
}
