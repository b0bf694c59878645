package hdc

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/edge-hdc/generic/internal/rng"
)

func TestVecAddSub(t *testing.T) {
	a := Vec{1, 2, 3}
	b := Vec{10, -20, 30}
	a.AddInto(b)
	if a[0] != 11 || a[1] != -18 || a[2] != 33 {
		t.Fatalf("AddInto wrong: %v", a)
	}
	a.SubInto(b)
	if a[0] != 1 || a[1] != 2 || a[2] != 3 {
		t.Fatalf("SubInto wrong: %v", a)
	}
}

// TestVecAddIntoKernel checks AddInto on both paths against element-wise
// int32 addition, wraparound included, at lengths that enter and leave the
// vector loop.
func TestVecAddIntoKernel(t *testing.T) {
	forEachBundlePath(t, func(t *testing.T) {
		r := rng.New(4)
		for _, n := range []int{0, 1, 15, 16, 17, 33, 130, 2048} {
			v, o := make(Vec, n), make(Vec, n)
			for i := range v {
				v[i], o[i] = int32(r.Uint32()), int32(r.Uint32())
			}
			want := v.Clone()
			for i, x := range o {
				want[i] += x
			}
			v.AddInto(o)
			for i := range v {
				if v[i] != want[i] {
					t.Fatalf("n=%d: AddInto[%d] = %d, want %d", n, i, v[i], want[i])
				}
			}
		}
	})
}

func TestVecDotNorm(t *testing.T) {
	a := Vec{1, -2, 3}
	b := Vec{4, 5, -6}
	if d := a.Dot(b); d != 4-10-18 {
		t.Fatalf("Dot = %d, want -24", d)
	}
	if n := a.Norm2(); n != 1+4+9 {
		t.Fatalf("Norm2 = %d, want 14", n)
	}
}

func TestVecPrefixOps(t *testing.T) {
	a := Vec{1, 2, 3, 4}
	b := Vec{1, 1, 1, 1}
	if d := a.DotPrefix(b, 2); d != 3 {
		t.Fatalf("DotPrefix(2) = %d, want 3", d)
	}
	if d := a.DotPrefix(b, 4); d != a.Dot(b) {
		t.Fatal("full prefix dot != Dot")
	}
}

func TestCosineScoreOrdersLikeCosine(t *testing.T) {
	// The paper's modified metric sign(dot)·dot²/‖C‖² must rank candidate
	// classes identically to true cosine for a fixed query.
	r := rng.New(1)
	const d = 512
	q := make(Vec, d)
	for i := range q {
		q[i] = int32(r.Intn(21) - 10)
	}
	qn := math.Sqrt(float64(q.Norm2()))
	classes := make([]Vec, 8)
	for c := range classes {
		classes[c] = make(Vec, d)
		for i := range classes[c] {
			classes[c][i] = int32(r.Intn(2001) - 1000)
		}
	}
	type pair struct{ mod, cos float64 }
	scores := make([]pair, len(classes))
	for c, cv := range classes {
		dot := q.Dot(cv)
		scores[c] = pair{
			mod: CosineScore(dot, cv.Norm2()),
			cos: float64(dot) / (qn * math.Sqrt(float64(cv.Norm2()))),
		}
	}
	for i := range scores {
		for j := range scores {
			if (scores[i].mod > scores[j].mod) != (scores[i].cos > scores[j].cos) {
				t.Fatalf("ranking disagreement between modified and true cosine: %v vs %v",
					scores[i], scores[j])
			}
		}
	}
}

func TestCosineScoreSign(t *testing.T) {
	if s := CosineScore(-5, 100); s >= 0 {
		t.Fatalf("negative dot must score negative, got %v", s)
	}
	if s := CosineScore(5, 100); s <= 0 {
		t.Fatalf("positive dot must score positive, got %v", s)
	}
	if s := CosineScore(5, 0); s > -1e300 {
		t.Fatalf("zero-norm class must rank last, got %v", s)
	}
}

func TestSaturate(t *testing.T) {
	v := Vec{1000, -1000, 127, -128, 0}
	v.Saturate(8)
	want := Vec{127, -128, 127, -128, 0}
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("Saturate(8): %v, want %v", v, want)
		}
	}
}

func TestSaturatePanics(t *testing.T) {
	for _, bw := range []int{0, -1, 32} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Saturate(%d) did not panic", bw)
				}
			}()
			Vec{1}.Saturate(bw)
		}()
	}
}

func TestQuantizeToPreservesSignAndOrder(t *testing.T) {
	v := Vec{100, 50, -50, -100, 0}
	q := v.Clone()
	q.QuantizeTo(4, 100)
	if q[0] <= q[1] || q[1] <= q[4] || q[4] <= q[2] || q[2] <= q[3] {
		t.Fatalf("quantization broke ordering: %v", q)
	}
	hi := int32(7)
	for i, x := range q {
		if x > hi || x < -8 {
			t.Fatalf("element %d out of 4-bit range: %d", i, x)
		}
	}
}

func TestQuantizeToOneBit(t *testing.T) {
	v := Vec{100, -100, 30, -30}
	v.QuantizeTo(1, 100)
	for i, x := range v {
		if x > 0 || x < -1 {
			t.Fatalf("1-bit quantization out of range at %d: %d", i, x)
		}
	}
}

func TestMaxAbs(t *testing.T) {
	if m := (Vec{3, -7, 5}).MaxAbs(); m != 7 {
		t.Fatalf("MaxAbs = %d, want 7", m)
	}
	if m := (Vec{}).MaxAbs(); m != 0 {
		t.Fatalf("MaxAbs of empty = %d, want 0", m)
	}
}

func TestDotSymmetry(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a, b := make(Vec, 64), make(Vec, 64)
		for i := range a {
			a[i] = int32(r.Intn(65536) - 32768)
			b[i] = int32(r.Intn(65536) - 32768)
		}
		return a.Dot(b) == b.Dot(a) && a.Norm2() == a.Dot(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkVecDot4096(b *testing.B) {
	r := rng.New(1)
	x, y := make(Vec, 4096), make(Vec, 4096)
	for i := range x {
		x[i] = int32(r.Intn(200) - 100)
		y[i] = int32(r.Intn(65536) - 32768)
	}
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink = x.Dot(y)
	}
	_ = sink
}
