package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/edge-hdc/generic/internal/rng"
)

func TestAccuracy(t *testing.T) {
	a, err := Accuracy([]int{1, 2, 3}, []int{1, 2, 4})
	if err != nil || math.Abs(a-2.0/3) > 1e-12 {
		t.Fatalf("Accuracy = %v, %v, want 2/3", a, err)
	}
	if a, err := Accuracy(nil, nil); err != nil || a != 0 {
		t.Fatalf("empty accuracy = %v, %v", a, err)
	}
	if a := MustAccuracy([]int{1, 2}, []int{1, 2}); a != 1 {
		t.Fatalf("MustAccuracy = %v, want 1", a)
	}
}

func TestAccuracyLengthMismatch(t *testing.T) {
	if _, err := Accuracy([]int{1}, []int{1, 2}); err == nil {
		t.Fatal("length mismatch did not error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustAccuracy did not panic on mismatch")
		}
	}()
	MustAccuracy([]int{1}, []int{1, 2})
}

func TestNMIIdentical(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2}
	if nmi := NMI(a, a); math.Abs(nmi-1) > 1e-12 {
		t.Fatalf("NMI(a,a) = %v, want 1", nmi)
	}
}

func TestNMIPermutationInvariant(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2}
	b := []int{5, 5, 9, 9, 7, 7} // same partition, different label names
	if nmi := NMI(a, b); math.Abs(nmi-1) > 1e-12 {
		t.Fatalf("NMI under relabeling = %v, want 1", nmi)
	}
}

func TestNMIIndependent(t *testing.T) {
	// A partition vs a perfectly crossed partition: I = 0.
	a := []int{0, 0, 1, 1}
	b := []int{0, 1, 0, 1}
	if nmi := NMI(a, b); math.Abs(nmi) > 1e-12 {
		t.Fatalf("NMI of independent partitions = %v, want 0", nmi)
	}
}

func TestNMISymmetricAndBounded(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 20 + r.Intn(50)
		a, b := make([]int, n), make([]int, n)
		for i := range a {
			a[i] = r.Intn(4)
			b[i] = r.Intn(3)
		}
		x, y := NMI(a, b), NMI(b, a)
		return math.Abs(x-y) < 1e-12 && x >= 0 && x <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNMITrivialPartitions(t *testing.T) {
	if nmi := NMI([]int{0, 0, 0}, []int{1, 1, 1}); nmi != 1 {
		t.Fatalf("NMI of two trivial partitions = %v, want 1", nmi)
	}
	if nmi := NMI([]int{0, 0, 0}, []int{0, 1, 2}); nmi != 0 {
		t.Fatalf("NMI of trivial vs discrete = %v, want 0", nmi)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 100}); math.Abs(g-10) > 1e-9 {
		t.Fatalf("GeoMean(1,100) = %v, want 10", g)
	}
	if g := GeoMean([]float64{2, 0, -3, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("GeoMean skipping non-positive = %v, want 4", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Fatalf("GeoMean(nil) = %v", g)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); math.Abs(m-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if s := StdDev(xs); math.Abs(s-2) > 1e-12 {
		t.Fatalf("StdDev = %v, want 2", s)
	}
	if s := StdDev([]float64{1}); s != 0 {
		t.Fatalf("StdDev singleton = %v", s)
	}
}
