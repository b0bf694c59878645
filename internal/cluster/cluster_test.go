package cluster

import (
	"testing"

	"github.com/edge-hdc/generic/internal/dataset"
	"github.com/edge-hdc/generic/internal/encoding"
	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/metrics"
	"github.com/edge-hdc/generic/internal/rng"
)

func TestKMeansHepta(t *testing.T) {
	cs := dataset.MustLoadCluster("Hepta", 1)
	res := KMeansBest(cs.X, cs.K, 100, 10, 3)
	if nmi := metrics.NMI(res.Assignments, cs.Labels); nmi < 0.95 {
		t.Errorf("k-means on Hepta NMI = %.3f, want ≈1 (well-separated clusters)", nmi)
	}
	if res.Iters < 1 {
		t.Error("k-means reported zero iterations")
	}
}

func TestKMeansTwoDiamonds(t *testing.T) {
	cs := dataset.MustLoadCluster("TwoDiamonds", 1)
	res := KMeans(cs.X, cs.K, 100, 3)
	if nmi := metrics.NMI(res.Assignments, cs.Labels); nmi < 0.9 {
		t.Errorf("k-means on TwoDiamonds NMI = %.3f, want high", nmi)
	}
}

func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	cs := dataset.MustLoadCluster("Tetra", 1)
	i2 := KMeans(cs.X, 2, 100, 1).Inertia
	i4 := KMeans(cs.X, 4, 100, 1).Inertia
	i8 := KMeans(cs.X, 8, 100, 1).Inertia
	if !(i2 > i4 && i4 > i8) {
		t.Errorf("inertia not decreasing with k: %v, %v, %v", i2, i4, i8)
	}
}

func TestKMeansDeterministicBySeed(t *testing.T) {
	cs := dataset.MustLoadCluster("Iris", 1)
	a := KMeans(cs.X, 3, 100, 9)
	b := KMeans(cs.X, 3, 100, 9)
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatal("k-means not deterministic for equal seeds")
		}
	}
}

func TestKMeansPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k > n did not panic")
		}
	}()
	KMeans([][]float64{{1}, {2}}, 3, 10, 1)
}

func TestKMeansDegenerateData(t *testing.T) {
	// All identical points: must terminate and assign everything somewhere.
	X := make([][]float64, 10)
	for i := range X {
		X[i] = []float64{1, 1}
	}
	res := KMeans(X, 3, 50, 1)
	for _, a := range res.Assignments {
		if a < 0 || a >= 3 {
			t.Fatalf("bad assignment %d", a)
		}
	}
	if res.Inertia != 0 {
		t.Fatalf("inertia = %v on coincident points", res.Inertia)
	}
}

// encodeCluster encodes a ClusterSet with the GENERIC encoding as the
// accelerator would (windowed, id-bound, over the quantization range).
func encodeCluster(cs *dataset.ClusterSet, d int) []hdc.Vec {
	n := 3
	if cs.Features < 3 {
		n = cs.Features
	}
	enc := encoding.MustNew(encoding.Generic, encoding.Config{
		D: d, Features: cs.Features, Bins: 32, Lo: cs.Lo, Hi: cs.Hi,
		N: n, UseID: true, Seed: 11,
	})
	return encoding.EncodeAll(enc, cs.X)
}

func TestHDCClusterHepta(t *testing.T) {
	cs := dataset.MustLoadCluster("Hepta", 1)
	encoded := encodeCluster(cs, 2048)
	res := HDC(encoded, cs.K, 10, 1)
	if nmi := metrics.NMI(res.Assignments, cs.Labels); nmi < 0.75 {
		t.Errorf("HDC clustering on Hepta NMI = %.3f, want ≥ 0.75 (paper: 0.904)", nmi)
	}
}

func TestHDCClusterTwoDiamonds(t *testing.T) {
	cs := dataset.MustLoadCluster("TwoDiamonds", 1)
	encoded := encodeCluster(cs, 2048)
	res := HDC(encoded, cs.K, 10, 1)
	if nmi := metrics.NMI(res.Assignments, cs.Labels); nmi < 0.7 {
		t.Errorf("HDC clustering on TwoDiamonds NMI = %.3f, want ≥ 0.7 (paper: 0.981)", nmi)
	}
}

func TestHDCClusterAssignmentsInRange(t *testing.T) {
	cs := dataset.MustLoadCluster("Iris", 1)
	encoded := encodeCluster(cs, 1024)
	res := HDC(encoded, cs.K, 5, 1)
	if len(res.Assignments) != len(cs.X) {
		t.Fatal("assignment count mismatch")
	}
	for _, a := range res.Assignments {
		if a < 0 || a >= cs.K {
			t.Fatalf("assignment %d out of range", a)
		}
	}
	if len(res.Centroids) != cs.K {
		t.Fatal("wrong centroid count")
	}
}

func TestHDCClusterSingleCluster(t *testing.T) {
	r := rng.New(5)
	encoded := make([]hdc.Vec, 20)
	for i := range encoded {
		encoded[i] = make(hdc.Vec, 256)
		for j := range encoded[i] {
			encoded[i][j] = int32(r.Intn(9) - 4)
		}
	}
	res := HDC(encoded, 1, 3, 1)
	for _, a := range res.Assignments {
		if a != 0 {
			t.Fatal("k=1 produced nonzero assignment")
		}
	}
}

func TestHDCClusterPanicsWhenTooFewInputs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k > n did not panic")
		}
	}()
	HDC([]hdc.Vec{make(hdc.Vec, 64)}, 2, 3, 1)
}

func TestHDCVsKMeansShape(t *testing.T) {
	// Table 2's qualitative claim: k-means scores slightly higher on the
	// low-feature FCPS sets, and both methods land in the same band. Verify
	// HDC is within 0.3 NMI of k-means on Hepta.
	cs := dataset.MustLoadCluster("Hepta", 1)
	km := KMeansBest(cs.X, cs.K, 100, 10, 3)
	hd := HDC(encodeCluster(cs, 2048), cs.K, 10, 1)
	kmNMI := metrics.NMI(km.Assignments, cs.Labels)
	hdNMI := metrics.NMI(hd.Assignments, cs.Labels)
	if kmNMI-hdNMI > 0.3 {
		t.Errorf("HDC NMI %.3f too far below k-means %.3f", hdNMI, kmNMI)
	}
}

func BenchmarkKMeansTetra(b *testing.B) {
	cs := dataset.MustLoadCluster("Tetra", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KMeans(cs.X, cs.K, 100, uint64(i))
	}
}

func BenchmarkHDCClusterIris(b *testing.B) {
	cs := dataset.MustLoadCluster("Iris", 1)
	encoded := encodeCluster(cs, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HDC(encoded, cs.K, 5, 1)
	}
}
