package classifier

import (
	"testing"

	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/rng"
)

// faultModel trains a small deterministic model for fault tests.
func faultModel(t *testing.T, bw int) *Model {
	t.Helper()
	const d, nC, n = 256, 4, 64
	r := rng.New(31)
	encoded := make([]hdc.Vec, n)
	labels := make([]int, n)
	for i := range encoded {
		v := make(hdc.Vec, d)
		c := i % nC
		for j := range v {
			v[j] = int32(r.Intn(3) - 1)
			if j%nC == c {
				v[j] += 2 // class-correlated structure
			}
		}
		encoded[i] = v
		labels[i] = c
	}
	m, _ := mustTrain(t, encoded, labels, nC, Options{Epochs: 2, Seed: 31})
	if bw != m.BW() {
		m.Quantize(bw)
	}
	return m
}

func TestNorm2WordRoundTrip(t *testing.T) {
	m := faultModel(t, 16)
	orig := m.Norm2(1)
	w := m.Norm2Word(1)
	if int64(w) != orig {
		t.Fatalf("Norm2Word = %d, want %d", w, orig)
	}
	m.SetNorm2Word(1, w^(1<<40))
	if m.Norm2(1) == orig {
		t.Fatal("SetNorm2Word did not change the stored norm")
	}
	m.RefreshAllNorms()
	if m.Norm2(1) != orig {
		t.Fatalf("RefreshAllNorms did not repair the norm: %d vs %d", m.Norm2(1), orig)
	}
}

func TestMaskDims(t *testing.T) {
	m := faultModel(t, 16)
	const offset, stride = 5, 16
	masked := m.MaskDims(offset, stride)
	if want := m.D() / stride; masked != want {
		t.Fatalf("masked %d dims per class, want %d", masked, want)
	}
	for c := 0; c < m.Classes(); c++ {
		var want int64
		for i, v := range m.Class(c) {
			if i%stride == offset && v != 0 {
				t.Fatalf("class %d dim %d survived masking", c, i)
			}
			want += int64(v) * int64(v)
		}
		if m.Norm2(c) != want {
			t.Fatalf("class %d norm2 not refreshed after masking", c)
		}
	}
	for _, bad := range [][2]int{{-1, 16}, {16, 16}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MaskDims(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			m.MaskDims(bad[0], bad[1])
		}()
	}
}
