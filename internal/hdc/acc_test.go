package hdc

import (
	"testing"
	"testing/quick"

	"github.com/edge-hdc/generic/internal/rng"
)

// naiveCounts is the reference implementation the bit-sliced Acc must match.
func naiveCounts(vecs []*BinVec, d int) []int32 {
	c := make([]int32, d)
	for _, v := range vecs {
		for i := 0; i < d; i++ {
			c[i] += int32(v.Bit(i))
		}
	}
	return c
}

func TestAccMatchesNaive(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%50 + 1
		r := rng.New(seed)
		const d = 256
		acc := NewAcc(d)
		vecs := make([]*BinVec, n)
		for i := range vecs {
			vecs[i] = RandomBinVec(d, r)
			acc.Add(vecs[i])
		}
		want := naiveCounts(vecs, d)
		got := make([]int32, d)
		acc.Counts(got)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return acc.Count() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAccBipolar(t *testing.T) {
	const d = 128
	acc := NewAcc(d)
	ones := NewBinVec(d)
	for i := 0; i < d; i++ {
		ones.SetBit(i, 1)
	}
	zeros := NewBinVec(d)
	acc.Add(ones)
	acc.Add(ones)
	acc.Add(zeros)
	out := make([]int32, d)
	acc.Bipolar(out)
	for i, v := range out {
		// counts = 2 of 3 ⇒ bipolar = 2·2 − 3 = 1
		if v != 1 {
			t.Fatalf("dim %d: bipolar = %d, want 1", i, v)
		}
	}
}

func TestAccCountAt(t *testing.T) {
	const d = 64
	acc := NewAcc(d)
	v := NewBinVec(d)
	v.SetBit(3, 1)
	for i := 0; i < 9; i++ {
		acc.Add(v)
	}
	if c := acc.CountAt(3); c != 9 {
		t.Fatalf("CountAt(3) = %d, want 9", c)
	}
	if c := acc.CountAt(4); c != 0 {
		t.Fatalf("CountAt(4) = %d, want 0", c)
	}
}

func TestAccReset(t *testing.T) {
	const d = 128
	r := rng.New(3)
	acc := NewAcc(d)
	for i := 0; i < 10; i++ {
		acc.Add(RandomBinVec(d, r))
	}
	acc.Reset()
	if acc.Count() != 0 {
		t.Fatal("Reset did not clear count")
	}
	out := make([]int32, d)
	acc.Counts(out)
	for i, v := range out {
		if v != 0 {
			t.Fatalf("dim %d nonzero after Reset: %d", i, v)
		}
	}
	// Accumulator must be reusable after Reset.
	v := NewBinVec(d)
	v.SetBit(0, 1)
	acc.Add(v)
	if acc.CountAt(0) != 1 {
		t.Fatal("Acc unusable after Reset")
	}
}

func TestAccMajorityRecovery(t *testing.T) {
	// Bundling noisy copies of a prototype must recover the prototype:
	// the fundamental robustness property of HDC bundling. With an odd
	// number of copies the majority has no ties.
	r := rng.New(4)
	const d = 4096
	proto := RandomBinVec(d, r)
	acc := NewAcc(d)
	for i := 0; i < 21; i++ {
		noisy := proto.Clone()
		for j := 0; j < d; j++ {
			if r.Float64() < 0.2 {
				noisy.SetBit(j, 1-noisy.Bit(j))
			}
		}
		acc.Add(noisy)
	}
	rec := NewBinVec(d)
	acc.MajorityInto(rec)
	if h := rec.Hamming(proto); h > d/50 {
		t.Fatalf("majority failed to recover prototype: hamming %d of %d", h, d)
	}
}

func TestAccLargeCountPlaneGrowth(t *testing.T) {
	const d = 64
	acc := NewAcc(d)
	v := NewBinVec(d)
	v.SetBit(7, 1)
	const n = 1000
	for i := 0; i < n; i++ {
		acc.Add(v)
	}
	if c := acc.CountAt(7); c != n {
		t.Fatalf("CountAt(7) = %d, want %d", c, n)
	}
}

func BenchmarkAccAdd4096(b *testing.B) {
	r := rng.New(1)
	acc := NewAcc(4096)
	v := RandomBinVec(4096, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Add(v)
	}
}

func BenchmarkAccCounts4096(b *testing.B) {
	r := rng.New(1)
	acc := NewAcc(4096)
	for i := 0; i < 100; i++ {
		acc.Add(RandomBinVec(4096, r))
	}
	dst := make([]int32, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Counts(dst)
	}
}

func TestMajorityIntoMatchesBipolarPackSigns(t *testing.T) {
	// MajorityInto must equal the two-step reference — materialize the
	// bipolar bundle, then pack its signs — for even and odd bundle sizes
	// (ties at n/2 resolve to +1 under the v >= 0 rule).
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw) % 70 // 0 included: empty accumulator packs all ones
		r := rng.New(seed)
		const d = 256
		acc := NewAcc(d)
		for i := 0; i < n; i++ {
			acc.Add(RandomBinVec(d, r))
		}
		tmp := make(Vec, d)
		acc.Bipolar(tmp)
		want := NewBinVec(d)
		want.PackSigns(tmp)
		got := NewBinVec(d)
		acc.MajorityInto(got)
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMajorityIntoDimGuard(t *testing.T) {
	acc := NewAcc(128)
	defer func() {
		if recover() == nil {
			t.Fatal("MajorityInto across dimensionalities did not panic")
		}
	}()
	acc.MajorityInto(NewBinVec(64))
}
