package hdc

import (
	"testing"
	"testing/quick"

	"github.com/edge-hdc/generic/internal/rng"
)

// bundle stages vecs as one bundle in acc.
func bundle(acc *Acc, vecs []*BinVec) {
	acc.Reset(len(vecs))
	for i, v := range vecs {
		acc.Row(i).CopyFrom(v)
	}
}

// naiveBipolar is the reference the bit-sliced Acc must match: per
// dimension, the sum of each vector's ±1 value.
func naiveBipolar(vecs []*BinVec, d int) Vec {
	out := make(Vec, d)
	for _, v := range vecs {
		for i := 0; i < d; i++ {
			out[i] += int32(v.Bipolar(i))
		}
	}
	return out
}

// checkReadouts compares both readouts of acc against the naive sums of
// vecs: Bipolar exactly, MajorityInto as PackSigns of the sums.
func checkReadouts(t *testing.T, acc *Acc, vecs []*BinVec, d int) {
	t.Helper()
	want := naiveBipolar(vecs, d)
	got := make(Vec, d)
	acc.Bipolar(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("n=%d dim %d: Bipolar = %d, naive %d", len(vecs), i, got[i], want[i])
		}
	}
	wantBin := NewBinVec(d)
	wantBin.PackSigns(want)
	gotBin := NewBinVec(d)
	acc.MajorityInto(gotBin)
	if !gotBin.Equal(wantBin) {
		t.Fatalf("n=%d: MajorityInto != PackSigns(naive)", len(vecs))
	}
}

// forEachBundlePath runs f once on the pure-Go bundle path and, where the
// CPU has AVX2, once more with the assembly kernels, restoring the gate
// after. Tests that call it must not run in parallel.
func forEachBundlePath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	hasKernel := useAVX2
	defer func() { useAVX2 = hasKernel }()
	for _, on := range []bool{false, true} {
		if on && !hasKernel {
			continue
		}
		useAVX2 = on
		name := "go"
		if on {
			name = "avx2"
		}
		t.Run(name, f)
	}
}

func randomVecs(n, d int, r *rng.Rand) []*BinVec {
	vecs := make([]*BinVec, n)
	for i := range vecs {
		vecs[i] = RandomBinVec(d, r)
	}
	return vecs
}

// TestAccMatchesNaive bundles n = 0..600 random rows at D = 64, 192, 320 and
// 2048 on both bundle paths, so bundles cross the 8-plane (n = 256) and
// 9-plane (n = 512) boundaries of the readout, and at D = 320 the kernel's
// column sits beside a word the Go path reads out. One accumulator per D
// serves every bundle, so planes and staging a larger bundle left behind
// must not leak into a smaller one.
func TestAccMatchesNaive(t *testing.T) {
	forEachBundlePath(t, func(t *testing.T) {
		for _, d := range []int{64, 192, 320, 2048} {
			acc := NewAcc(d)
			got := make(Vec, d)
			f := func(seed uint64, nRaw uint16) bool {
				n := int(nRaw) % 601
				vecs := randomVecs(n, d, rng.New(seed))
				bundle(acc, vecs)
				acc.Bipolar(got)
				want := naiveBipolar(vecs, d)
				for i := range want {
					if got[i] != want[i] {
						t.Logf("D=%d n=%d dim %d: Bipolar = %d, naive %d", d, n, i, got[i], want[i])
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatalf("D=%d: %v", d, err)
			}
		}
	})
}

// FuzzAccBipolar holds both readouts of both bundle paths to naiveBipolar on
// bundles built from the fuzz bytes: n = nRaw mod 601 rows of D=320 (one
// kernel column and one Go word), read as one cyclic stream of data (40
// bytes per row; empty data gives zero rows). A short run of
// 0xff bytes sets the same lanes in every row and drives their counts to n,
// which random rows almost never reach. The first half of the bundle is then
// re-bundled on the same accumulator, whose higher planes must not leak.
func FuzzAccBipolar(f *testing.F) {
	f.Add(uint16(600), []byte{0xff})
	f.Add(uint16(256), []byte{0xff, 0x0f, 0x00})
	f.Add(uint16(255), []byte{0x55, 0xaa, 0xff, 0x01, 0x80})
	f.Add(uint16(512), []byte{})
	f.Fuzz(func(t *testing.T, nRaw uint16, data []byte) {
		const d = 320
		vecs := make([]*BinVec, int(nRaw)%601)
		pos := 0
		for i := range vecs {
			vecs[i] = NewBinVec(d)
			if len(data) == 0 {
				continue
			}
			for w := range vecs[i].Words() {
				var word uint64
				for b := 0; b < 8; b++ {
					word |= uint64(data[pos%len(data)]) << (8 * b)
					pos++
				}
				vecs[i].Words()[w] = word
			}
		}
		forEachBundlePath(t, func(t *testing.T) {
			acc := NewAcc(d)
			bundle(acc, vecs)
			checkReadouts(t, acc, vecs, d)
			half := vecs[:len(vecs)/2]
			bundle(acc, half)
			checkReadouts(t, acc, half, d)
		})
	})
}

// TestAccEdgeCases runs bundle sizes around the carry-save tree's edges on
// both bundle paths — empty, every n up to two blocks (each n mod 8 tail),
// one short of a block, one block, one past it, and the 8- and 9-plane
// boundaries (n = 255, 256, 511, 512) — on one accumulator per D, so staging
// and high planes left by a larger bundle must not leak into a smaller one.
// The 1000-row bundle with a single shared bit drives every count of one
// lane to 1000, which needs ten planes; the 5-row bundle after it needs
// none. D = 192 has no kernel column, 320 one beside a Go word, 2048 eight.
func TestAccEdgeCases(t *testing.T) {
	sizes := []int{5, 0}
	for n := 1; n <= 17; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 63, 64, 65, 127, 128, 129, 254, 255, 256, 257, 511, 512, 513, 255, 5)
	forEachBundlePath(t, func(t *testing.T) {
		for _, d := range []int{192, 320, 2048} {
			r := rng.New(5)
			acc := NewAcc(d)

			big := make([]*BinVec, 1000)
			for i := range big {
				big[i] = RandomBinVec(d, r)
				big[i].SetBit(7, 1)
			}
			bundle(acc, big)
			checkReadouts(t, acc, big, d)

			for _, n := range sizes {
				vecs := randomVecs(n, d, r)
				bundle(acc, vecs)
				checkReadouts(t, acc, vecs, d)
			}

			// Every lane of every row set: each count reaches n, the top
			// of what n rows can hold.
			for _, n := range []int{7, 8, 127, 128, 255, 256} {
				vecs := make([]*BinVec, n)
				for i := range vecs {
					vecs[i] = NewBinVec(d)
					for w := range vecs[i].Words() {
						vecs[i].Words()[w] = ^uint64(0)
					}
				}
				bundle(acc, vecs)
				checkReadouts(t, acc, vecs, d)
			}
		}
	})
}

func TestAccBipolar(t *testing.T) {
	const d = 128
	acc := NewAcc(d)
	ones := NewBinVec(d)
	for i := 0; i < d; i++ {
		ones.SetBit(i, 1)
	}
	bundle(acc, []*BinVec{ones, ones, NewBinVec(d)})
	out := make([]int32, d)
	acc.Bipolar(out)
	for i, v := range out {
		// counts = 2 of 3 ⇒ bipolar = 2·2 − 3 = 1
		if v != 1 {
			t.Fatalf("dim %d: bipolar = %d, want 1", i, v)
		}
	}
}

func TestAccReset(t *testing.T) {
	const d = 128
	r := rng.New(3)
	acc := NewAcc(d)
	bundle(acc, randomVecs(10, d, r))
	// A smaller bundle reuses the staging; only its own rows count.
	v := NewBinVec(d)
	v.SetBit(0, 1)
	bundle(acc, []*BinVec{v})
	out := make([]int32, d)
	acc.Bipolar(out)
	for i, got := range out {
		want := int32(-1)
		if i == 0 {
			want = 1
		}
		if got != want {
			t.Fatalf("dim %d after Reset(1): %d, want %d", i, got, want)
		}
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
	acc.Reset(21)
	for i := 0; i < 21; i++ {
		noisy := acc.Row(i)
		noisy.CopyFrom(proto)
		for j := 0; j < d; j++ {
			if r.Float64() < 0.2 {
				noisy.SetBit(j, 1-noisy.Bit(j))
			}
		}
	}
	rec := NewBinVec(d)
	acc.MajorityInto(rec)
	if h := rec.Hamming(proto); h > d/50 {
		t.Fatalf("majority failed to recover prototype: hamming %d of %d", h, d)
	}
}

func TestAccLargeCountPlaneGrowth(t *testing.T) {
	forEachBundlePath(t, func(t *testing.T) {
		for _, d := range []int{64, 256} {
			acc := NewAcc(d)
			for _, n := range []int{255, 1000} {
				acc.Reset(n)
				for i := 0; i < n; i++ {
					v := acc.Row(i)
					v.CopyFrom(NewBinVec(d))
					v.SetBit(7, 1)
				}
				out := make([]int32, d)
				acc.Bipolar(out)
				if out[7] != int32(n) || out[8] != -int32(n) {
					t.Fatalf("D=%d n=%d: dims 7, 8 = %d, %d, want %d, %d", d, n, out[7], out[8], n, -n)
				}
			}
		}
	})
}

func TestMajorityIntoMatchesBipolarPackSigns(t *testing.T) {
	// MajorityInto must equal the two-step reference — materialize the
	// bipolar bundle, then pack its signs — for even and odd bundle sizes
	// (ties at n/2 resolve to +1 under the v >= 0 rule).
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw) % 70 // 0 included: an empty bundle packs all ones
		r := rng.New(seed)
		const d = 256
		acc := NewAcc(d)
		bundle(acc, randomVecs(n, d, r))
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

func TestAccGuards(t *testing.T) {
	acc := NewAcc(128)
	acc.Reset(2)
	for name, f := range map[string]func(){
		"Bipolar across dimensionalities": func() { acc.Bipolar(make([]int32, 64)) },
		"Row past the bundle":             func() { acc.Row(2) },
		"Reset with negative rows":        func() { acc.Reset(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func benchAcc(n int) *Acc {
	r := rng.New(1)
	acc := NewAcc(4096)
	bundle(acc, randomVecs(n, 4096, r))
	return acc
}

func BenchmarkAccBipolar4096x128(b *testing.B) {
	acc := benchAcc(128)
	dst := make([]int32, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Bipolar(dst)
	}
}

func BenchmarkAccMajority4096x128(b *testing.B) {
	acc := benchAcc(128)
	out := NewBinVec(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.MajorityInto(out)
	}
}

// TestAccBipolar8 reads bundles of n = 0..127 rows out as int8 on both
// bundle paths and compares them with the naive sums, at D where the kernel
// takes every word, some, or none.
func TestAccBipolar8(t *testing.T) {
	forEachBundlePath(t, func(t *testing.T) {
		r := rng.New(8)
		for _, d := range []int{64, 192, 320, 2048} {
			acc := NewAcc(d)
			got := make([]int8, d)
			for n := 0; n <= 127; n++ {
				vecs := randomVecs(n, d, r)
				bundle(acc, vecs)
				acc.Bipolar8(got)
				for i, w := range naiveBipolar(vecs, d) {
					if int32(got[i]) != w {
						t.Fatalf("d=%d n=%d dim %d: Bipolar8 = %d, naive %d", d, n, i, got[i], w)
					}
				}
			}
		}
	})
	defer func() {
		if msg, _ := recover().(string); msg == "" {
			t.Fatal("Bipolar8 of 128 rows did not panic")
		}
	}()
	acc := NewAcc(64)
	acc.Reset(128)
	acc.Bipolar8(make([]int8, 64))
}

// TestAccStageXor stages whole bundles of windows in one call and compares
// every row with XorInto of the same sources, for window sizes 1 to 9, at D
// where the kernel takes every word, some, or none; one source aliases a row
// of the staging. Each bundle is then counted, so the staging is what the
// readouts see.
func TestAccStageXor(t *testing.T) {
	forEachBundlePath(t, func(t *testing.T) {
		r := rng.New(14)
		for _, d := range []int{64, 192, 320, 2048} {
			acc := NewAcc(d)
			for k := 1; k <= 9; k++ {
				for _, rows := range []int{0, 1, 3, 126} {
					srcs := randomVecs(rows*k, d, r)
					acc.StageXor(srcs, k)
					want := make([]*BinVec, rows)
					for i := range want {
						want[i] = NewBinVec(d)
						XorInto(want[i], srcs[i*k:(i+1)*k]...)
						if !acc.Row(i).Equal(want[i]) {
							t.Fatalf("d=%d k=%d rows=%d: row %d differs from XorInto", d, k, rows, i)
						}
					}
					checkReadouts(t, acc, want, d)
				}
			}
			// A source that is itself a staged row: every source word is
			// read before the row's word is written.
			srcs := randomVecs(4, d, r)
			acc.StageXor(srcs, 2)
			row0 := acc.Row(0)
			want := NewBinVec(d)
			XorInto(want, row0, srcs[3])
			acc.StageXor([]*BinVec{row0, srcs[3]}, 2)
			if !acc.Row(0).Equal(want) {
				t.Fatalf("d=%d: aliased source staged wrongly", d)
			}
		}
	})
	for name, f := range map[string]func(){
		"k=0":     func() { NewAcc(64).StageXor(nil, 0) },
		"ragged":  func() { NewAcc(64).StageXor(make([]*BinVec, 3), 2) },
		"wrong D": func() { NewAcc(64).StageXor([]*BinVec{NewBinVec(128)}, 1) },
		"wrong D in the kernel": func() {
			NewAcc(2048).StageXor([]*BinVec{NewBinVec(2048), NewBinVec(2048), NewBinVec(2048), NewBinVec(4096)}, 2)
		},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); len(msg) < 4 || msg[:4] != "hdc:" {
					t.Errorf("%s: did not panic with the hdc: prefix (got %q)", name, msg)
				}
			}()
			f()
		}()
	}
}
