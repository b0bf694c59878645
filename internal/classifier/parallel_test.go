package classifier

import (
	"testing"

	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/rng"
)

// synthEncoded builds a deterministic pseudo-encoded training set with
// class-dependent structure so retraining actually updates.
func synthEncoded(t testing.TB, n, d, nC int, seed uint64) ([]hdc.Vec, []int) {
	t.Helper()
	r := rng.New(seed)
	encoded := make([]hdc.Vec, n)
	labels := make([]int, n)
	for i := range encoded {
		c := r.Intn(nC)
		labels[i] = c
		v := hdc.NewVec(d)
		for j := range v {
			v[j] = int32(r.Intn(7)) - 3
			if (j+c)%nC == 0 {
				v[j] += int32(2 + c)
			}
		}
		encoded[i] = v
	}
	return encoded, labels
}

func modelsEqual(t *testing.T, a, b *Model) {
	t.Helper()
	if a.Classes() != b.Classes() || a.D() != b.D() {
		t.Fatalf("model shapes differ: (%d,%d) vs (%d,%d)", a.D(), a.Classes(), b.D(), b.Classes())
	}
	for c := 0; c < a.Classes(); c++ {
		av, bv := a.Class(c), b.Class(c)
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("class %d element %d differs: %d vs %d", c, i, av[i], bv[i])
			}
		}
		if a.Norm2(c) != b.Norm2(c) {
			t.Fatalf("class %d norm2 differs: %d vs %d", c, a.Norm2(c), b.Norm2(c))
		}
		for k := range a.subNorm2[c] {
			if a.subNorm2[c][k] != b.subNorm2[c][k] {
				t.Fatalf("class %d sub-norm %d differs", c, k)
			}
		}
	}
}

// The hard tentpole requirement: parallel training is bit-identical to
// serial training for a fixed seed.
func TestTrainEncodedParallelBitIdentical(t *testing.T) {
	encoded, labels := synthEncoded(t, 300, 512, 5, 11)
	serial, serialRes := mustTrain(t, encoded, labels, 5, Options{Epochs: 5, Seed: 3, Workers: 1})
	for _, workers := range []int{2, 3, 4, 8} {
		par, parRes := mustTrain(t, encoded, labels, 5, Options{Epochs: 5, Seed: 3, Workers: workers})
		if parRes.FinalUpdates != serialRes.FinalUpdates {
			t.Fatalf("workers=%d: final-epoch updates %d, serial %d", workers, parRes.FinalUpdates, serialRes.FinalUpdates)
		}
		modelsEqual(t, serial, par)
	}
}

func TestEvaluateAndPredictBatchMatchSerial(t *testing.T) {
	encoded, labels := synthEncoded(t, 300, 512, 5, 12)
	m, _ := mustTrain(t, encoded, labels, 5, Options{Epochs: 3, Seed: 1, Workers: 1})
	queries, qLabels := synthEncoded(t, 157, 512, 5, 13)

	wantAcc := EvaluateDimsBatch(m, queries, qLabels, m.D(), true, 1)
	wantPreds := m.PredictDimsBatch(queries, m.D(), true, 1)
	for _, workers := range []int{2, 4, 7} {
		if acc := EvaluateDimsBatch(m, queries, qLabels, m.D(), true, workers); acc != wantAcc {
			t.Fatalf("workers=%d: full-D accuracy %v, serial %v", workers, acc, wantAcc)
		}
		preds := m.PredictDimsBatch(queries, m.D(), true, workers)
		for i := range preds {
			if preds[i] != wantPreds[i] {
				t.Fatalf("workers=%d: prediction %d differs: %d vs %d", workers, i, preds[i], wantPreds[i])
			}
		}
		for _, dims := range []int{128, 256} {
			if got, want := EvaluateDimsBatch(m, queries, qLabels, dims, true, workers),
				EvaluateDimsBatch(m, queries, qLabels, dims, true, 1); got != want {
				t.Fatalf("workers=%d dims=%d: %v vs %v", workers, dims, got, want)
			}
		}
	}
}

// The fused Update path must reproduce the historical unfused sequence on
// the model level (element values, norms, and the sub-norm ladder).
func TestUpdateMatchesUnfusedSequence(t *testing.T) {
	encoded, labels := synthEncoded(t, 60, 256, 4, 21)
	fused := NewModel(256, 4, 8)
	ref := NewModel(256, 4, 8)
	for i, h := range encoded {
		fused.AddEncoded(h, labels[i])
		// Historical three-pass sequence.
		ref.classes[labels[i]].AddInto(h)
		ref.classes[labels[i]].Saturate(ref.bw)
		ref.refreshNorms(labels[i])
	}
	modelsEqual(t, ref, fused)
	for i, h := range encoded {
		wrong := (labels[i] + 1) % 4
		fused.Update(h, labels[i], wrong)
		ref.classes[wrong].SubInto(h)
		ref.classes[wrong].Saturate(ref.bw)
		ref.classes[labels[i]].AddInto(h)
		ref.classes[labels[i]].Saturate(ref.bw)
		ref.refreshNorms(wrong)
		ref.refreshNorms(labels[i])
	}
	modelsEqual(t, ref, fused)
}
