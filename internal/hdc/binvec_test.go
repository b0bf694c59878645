package hdc

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/edge-hdc/generic/internal/rng"
)

// randomVec returns a deterministic integer vector with values in [-4, 4],
// including zeros so the sign rule's v >= 0 boundary is exercised.
func randomVec(d int, r *rng.Rand) Vec {
	v := NewVec(d)
	for i := range v {
		v[i] = int32(r.Intn(9)) - 4
	}
	return v
}

func randomBinVec(d int, r *rng.Rand) *BinVec {
	b := NewBinVec(d)
	b.PackSigns(randomVec(d, r))
	return b
}

func TestNewBinVecPanicsOnBadDim(t *testing.T) {
	for _, d := range []int{0, -1, -64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBinVec(%d) did not panic", d)
				}
			}()
			NewBinVec(d)
		}()
	}
}

func TestNewBinVecAcceptsUnalignedDims(t *testing.T) {
	for _, d := range []int{1, 63, 64, 65, 100, 127, 1000} {
		v := NewBinVec(d)
		if v.D() != d {
			t.Fatalf("D() = %d, want %d", v.D(), d)
		}
		if got, want := len(v.Words()), (d+63)/64; got != want {
			t.Fatalf("D=%d: %d words, want %d", d, got, want)
		}
	}
}

func TestBinVecBitSetGet(t *testing.T) {
	v := NewBinVec(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Bit(i) != 0 {
			t.Fatalf("fresh vector has bit %d set", i)
		}
		v.SetBit(i, 1)
		if v.Bit(i) != 1 || v.Bipolar(i) != 1 {
			t.Fatalf("SetBit(%d,1) not visible", i)
		}
		v.SetBit(i, 0)
		if v.Bit(i) != 0 || v.Bipolar(i) != -1 {
			t.Fatalf("SetBit(%d,0) not visible", i)
		}
	}
}

func TestBinVecIndexGuards(t *testing.T) {
	v := NewBinVec(100)
	for _, i := range []int{-1, 100, 127} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bit(%d) on D=100 did not panic", i)
				}
			}()
			v.Bit(i)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetBit(%d) on D=100 did not panic", i)
				}
			}()
			v.SetBit(i, 1)
		}()
	}
}

func TestPackSignsSignRule(t *testing.T) {
	// The boundary case is zero: v >= 0 packs to 1 (+1), matching the
	// classifier's Quantize(1) sign rule.
	src := Vec{-2, -1, 0, 1, 2}
	v := NewBinVec(5)
	v.PackSigns(src)
	want := []int{0, 0, 1, 1, 1}
	for i, w := range want {
		if v.Bit(i) != w {
			t.Fatalf("bit %d = %d, want %d (src %d)", i, v.Bit(i), w, src[i])
		}
	}
}

func TestPackSignsTailInvariant(t *testing.T) {
	// Bits at positions >= D in the final word must stay zero even when the
	// source is all-nonnegative (which packs every addressable bit to 1).
	for _, d := range []int{1, 63, 65, 100, 127} {
		src := NewVec(d) // all zeros: every sign packs to 1
		v := NewBinVec(d)
		v.PackSigns(src)
		if v.OnesCount() != d {
			t.Fatalf("D=%d: OnesCount = %d, want %d", d, v.OnesCount(), d)
		}
		tail := v.Words()[len(v.Words())-1]
		if masked := tail & tailMask(d); masked != tail {
			t.Fatalf("D=%d: tail word %064b has phantom bits beyond D", d, tail)
		}
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		const d = 257 // unaligned on purpose
		r := rng.New(seed)
		src := randomVec(d, r)
		v := NewBinVec(d)
		v.PackSigns(src)
		back := NewVec(d)
		v.Unpack(back)
		for i := range src {
			want := int32(-1)
			if src[i] >= 0 {
				want = 1
			}
			if back[i] != want {
				return false
			}
		}
		// Re-packing the unpacked bipolar vector must be a fixed point.
		v2 := NewBinVec(d)
		v2.PackSigns(back)
		return v.Equal(v2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// refHamming is the bit-at-a-time reference the packed kernel must match.
func refHamming(a, b *BinVec, dims int) int {
	h := 0
	for i := 0; i < dims; i++ {
		if a.Bit(i) != b.Bit(i) {
			h++
		}
	}
	return h
}

func TestHammingMatchesReference(t *testing.T) {
	for _, d := range []int{1, 63, 64, 65, 127, 128, 1000, 1024} {
		r := rng.New(uint64(d))
		a := randomBinVec(d, r)
		b := randomBinVec(d, r)
		if got, want := a.Hamming(b), refHamming(a, b, d); got != want {
			t.Fatalf("D=%d: Hamming = %d, reference = %d", d, got, want)
		}
		if a.Hamming(a) != 0 {
			t.Fatalf("D=%d: Hamming(a,a) != 0", d)
		}
	}
}

func TestHammingPrefixMatchesReference(t *testing.T) {
	const d = 1024
	r := rng.New(7)
	a := randomBinVec(d, r)
	b := randomBinVec(d, r)
	for _, dims := range []int{1, 63, 64, 65, 100, 512, 1023, 1024} {
		if got, want := a.HammingPrefix(b, dims), refHamming(a, b, dims); got != want {
			t.Fatalf("dims=%d: HammingPrefix = %d, reference = %d", dims, got, want)
		}
	}
	for _, dims := range []int{0, -1, d + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("HammingPrefix(dims=%d) did not panic", dims)
				}
			}()
			a.HammingPrefix(b, dims)
		}()
	}
}

func TestBinVecDimensionGuards(t *testing.T) {
	a, b := NewBinVec(64), NewBinVec(128)
	for name, f := range map[string]func(){
		"Hamming":              func() { a.Hamming(b) },
		"HammingPrefix":        func() { a.HammingPrefix(b, 64) },
		"Dot":                  func() { a.Dot(b) },
		"CopyFrom":             func() { a.CopyFrom(b) },
		"PackSigns":            func() { a.PackSigns(NewVec(128)) },
		"Unpack":               func() { a.Unpack(NewVec(128)) },
		"XorInto":              func() { XorInto(a, a, b) },
		"XorAccumulate":        func() { XorAccumulate(a, b) },
		"RotateInto":           func() { RotateInto(a, b, 1) },
		"RotateInto/unaligned": func() { RotateInto(NewBinVec(100), NewBinVec(100), 1) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "hdc:") {
					t.Errorf("%s did not panic with the hdc: prefix (got %q)", name, msg)
				}
			}()
			f()
		}()
	}
	if a.Equal(b) {
		t.Fatal("Equal across dimensionalities should be false, not panic")
	}
}

func TestBinVecDotIdentity(t *testing.T) {
	// Dot = D − 2·hamming must agree with the explicit bipolar dot product,
	// including at unaligned D where the tail invariant carries the proof.
	f := func(s1, s2 uint64) bool {
		const d = 301
		a := randomBinVec(d, rng.New(s1))
		b := randomBinVec(d, rng.New(s2))
		explicit := 0
		for i := 0; i < d; i++ {
			explicit += a.Bipolar(i) * b.Bipolar(i)
		}
		return a.Dot(b) == explicit && a.Dot(a) == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBinVecCloneIndependence(t *testing.T) {
	r := rng.New(3)
	v := randomBinVec(200, r)
	c := v.Clone()
	if !v.Equal(c) {
		t.Fatal("clone differs from original")
	}
	c.SetBit(5, 1-c.Bit(5))
	if v.Equal(c) {
		t.Fatal("mutating clone affected original")
	}
	w := NewBinVec(200)
	w.CopyFrom(v)
	if !w.Equal(v) {
		t.Fatal("CopyFrom differs from source")
	}
}

const testD = 1024

func TestXorInvolution(t *testing.T) {
	r := rng.New(2)
	a := RandomBinVec(testD, r)
	b := RandomBinVec(testD, r)
	x := NewBinVec(testD)
	XorInto(x, a, b)
	y := NewBinVec(testD)
	XorInto(y, x, b) // (a⊕b)⊕b = a
	if !y.Equal(a) {
		t.Fatal("XOR bind is not an involution")
	}
}

func TestXorAliasingSafe(t *testing.T) {
	r := rng.New(3)
	a := RandomBinVec(testD, r)
	b := RandomBinVec(testD, r)
	want := NewBinVec(testD)
	XorInto(want, a, b)
	got := a.Clone()
	XorInto(got, got, b)
	if !got.Equal(want) {
		t.Fatal("XorInto with dst aliasing a gave wrong result")
	}
}

func TestXorAccumulate(t *testing.T) {
	r := rng.New(4)
	a := RandomBinVec(testD, r)
	b := RandomBinVec(testD, r)
	want := NewBinVec(testD)
	XorInto(want, a, b)
	got := a.Clone()
	XorAccumulate(got, b)
	if !got.Equal(want) {
		t.Fatal("XorAccumulate != XorInto")
	}
}

func TestRotatePreservesBitsExactPositions(t *testing.T) {
	r := rng.New(5)
	v := RandomBinVec(256, r)
	for _, k := range []int{0, 1, 63, 64, 65, 127, 128, 200, 255, 256, 300, -1, -64} {
		got := NewBinVec(256)
		RotateInto(got, v, k)
		for i := 0; i < 256; i++ {
			j := ((i+k)%256 + 256) % 256
			if got.Bit(j) != v.Bit(i) {
				t.Fatalf("rotate %d: bit %d of src should land at %d", k, i, j)
			}
		}
	}
}

func TestRotateComposition(t *testing.T) {
	r := rng.New(6)
	v := RandomBinVec(testD, r)
	a := Rotate(Rotate(v, 37), 91)
	b := Rotate(v, 37+91)
	if !a.Equal(b) {
		t.Fatal("ρ(91)∘ρ(37) != ρ(128)")
	}
}

func TestRotateFullCycleIsIdentity(t *testing.T) {
	r := rng.New(7)
	v := RandomBinVec(testD, r)
	if !Rotate(v, testD).Equal(v) {
		t.Fatal("ρ(D) is not the identity")
	}
}

func TestRotateInvertible(t *testing.T) {
	f := func(seed uint64, kRaw int) bool {
		k := ((kRaw % testD) + testD) % testD
		v := RandomBinVec(testD, rng.New(seed))
		return Rotate(Rotate(v, k), testD-k).Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRotatePreservesOnesCount(t *testing.T) {
	f := func(seed uint64, kRaw int) bool {
		v := RandomBinVec(testD, rng.New(seed))
		return Rotate(v, kRaw%4096).OnesCount() == v.OnesCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHammingBasics(t *testing.T) {
	a := NewBinVec(128)
	b := NewBinVec(128)
	if a.Hamming(b) != 0 {
		t.Fatal("hamming of identical vectors != 0")
	}
	b.SetBit(5, 1)
	b.SetBit(100, 1)
	if h := a.Hamming(b); h != 2 {
		t.Fatalf("hamming = %d, want 2", h)
	}
	if d := a.Dot(b); d != 128-4 {
		t.Fatalf("dot = %d, want %d", d, 124)
	}
}

func TestDotSelfEqualsD(t *testing.T) {
	v := RandomBinVec(testD, rng.New(8))
	if v.Dot(v) != testD {
		t.Fatalf("dot(v,v) = %d, want %d", v.Dot(v), testD)
	}
}

func TestRandomVectorsNearOrthogonal(t *testing.T) {
	r := rng.New(9)
	const d = 4096
	for i := 0; i < 20; i++ {
		dot := RandomBinVec(d, r).Dot(RandomBinVec(d, r))
		// For random ±1 vectors, dot is ~N(0, D); |dot| > 6σ is a failure.
		if dot > 6*64 || dot < -6*64 {
			t.Fatalf("random pair dot = %d, |dot| too large for D=%d", dot, d)
		}
	}
}

func TestRotateRandomStaysOrthogonalToSelf(t *testing.T) {
	// A random vector and its rotation should be near-orthogonal — the
	// property that justifies seed-rotated id generation.
	const d = 4096
	v := RandomBinVec(d, rng.New(11))
	for _, k := range []int{1, 2, 17, 64, 1000, d / 2} {
		if dot := v.Dot(Rotate(v, k)); dot > 6*64 || dot < -6*64 {
			t.Errorf("dot(v, ρ(%d)v) = %d, expected near-orthogonal", k, dot)
		}
	}
}

func FuzzBinVecPackHamming(f *testing.F) {
	f.Add(uint64(1), uint64(2), 65)
	f.Add(uint64(0), uint64(0), 1)
	f.Add(uint64(42), uint64(43), 1024)
	f.Fuzz(func(t *testing.T, s1, s2 uint64, dRaw int) {
		d := dRaw%1500 + 1
		if d < 1 {
			d += 1500
		}
		a := randomBinVec(d, rng.New(s1))
		b := randomBinVec(d, rng.New(s2))
		if got, want := a.Hamming(b), refHamming(a, b, d); got != want {
			t.Fatalf("D=%d: Hamming = %d, reference = %d", d, got, want)
		}
		if a.Hamming(b) != b.Hamming(a) {
			t.Fatalf("D=%d: Hamming not symmetric", d)
		}
		// Tail invariant survives packing random signs and random fill.
		for _, v := range []*BinVec{a, RandomBinVec(d, rng.New(s1))} {
			if tail := v.Words()[len(v.Words())-1]; tail&tailMask(d) != tail {
				t.Fatalf("D=%d: phantom tail bits in %v", d, v)
			}
		}
		// XOR binding at any D: the bound vector's popcount is the Hamming
		// distance, and folding the same vector in twice is the identity.
		x := NewBinVec(d)
		XorInto(x, a, b)
		if x.OnesCount() != a.Hamming(b) {
			t.Fatalf("D=%d: OnesCount(a⊕b) = %d, Hamming = %d", d, x.OnesCount(), a.Hamming(b))
		}
		y := x.Clone()
		XorAccumulate(y, b)
		XorAccumulate(y, b)
		if !y.Equal(x) {
			t.Fatalf("D=%d: XorAccumulate twice is not the identity", d)
		}
	})
}

func BenchmarkBinVecHamming4096(b *testing.B) {
	r := rng.New(1)
	x := randomBinVec(4096, r)
	y := randomBinVec(4096, r)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink = x.Hamming(y)
	}
	_ = sink
}

func BenchmarkBinVecPackSigns4096(b *testing.B) {
	r := rng.New(1)
	src := randomVec(4096, r)
	dst := NewBinVec(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.PackSigns(src)
	}
}

func BenchmarkXor4096(b *testing.B) {
	r := rng.New(1)
	x := RandomBinVec(4096, r)
	y := RandomBinVec(4096, r)
	dst := NewBinVec(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		XorInto(dst, x, y)
	}
}

func BenchmarkRotate4096(b *testing.B) {
	r := rng.New(1)
	x := RandomBinVec(4096, r)
	dst := NewBinVec(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RotateInto(dst, x, 37)
	}
}
