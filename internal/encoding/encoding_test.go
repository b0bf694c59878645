package encoding

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/parallel"
	"github.com/edge-hdc/generic/internal/rng"
)

func testCfg(features int) Config {
	return Config{D: 512, Features: features, Bins: 16, Lo: 0, Hi: 1, N: 3, UseID: true, Seed: 1}
}

func randInput(r *rng.Rand, d int) []float64 {
	x := make([]float64, d)
	for i := range x {
		x[i] = r.Float64()
	}
	return x
}

func TestAllKindsConstruct(t *testing.T) {
	for _, k := range Kinds() {
		e, err := New(k, testCfg(20))
		if err != nil {
			t.Fatalf("New(%v): %v", k, err)
		}
		if e.Kind() != k {
			t.Fatalf("Kind() = %v, want %v", e.Kind(), k)
		}
		if e.D() != 512 {
			t.Fatalf("%v: D() = %d, want 512", k, e.D())
		}
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{RP: "RP", LevelID: "level-id", Ngram: "ngram", Permute: "permute", Generic: "GENERIC"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if Kind(42).String() != "Kind(42)" {
		t.Errorf("unknown kind string = %q", Kind(42).String())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Generic, Config{D: 512, Features: 2, N: 3, Lo: 0, Hi: 1}); err == nil {
		t.Error("features < N accepted")
	}
	if _, err := New(LevelID, Config{D: 100, Features: 10, Lo: 0, Hi: 1}); err == nil {
		t.Error("D not multiple of 64 accepted")
	}
	if _, err := New(LevelID, Config{D: 512, Features: 0, Lo: 0, Hi: 1}); err == nil {
		t.Error("zero features accepted")
	}
	if _, err := New(Kind(99), testCfg(10)); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestDefaults(t *testing.T) {
	c := Config{}.Default()
	if c.D != 4096 || c.Bins != 64 || c.N != 3 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if c.Hi <= c.Lo {
		t.Fatalf("default range degenerate: [%v,%v]", c.Lo, c.Hi)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	r := rng.New(7)
	x := randInput(r, 20)
	for _, k := range Kinds() {
		e1 := MustNew(k, testCfg(20))
		e2 := MustNew(k, testCfg(20))
		a, b := hdc.NewVec(512), hdc.NewVec(512)
		e1.Encode(x, a)
		e2.Encode(x, b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: encoding not deterministic at dim %d", k, i)
			}
		}
		// Same encoder, repeated call (scratch reuse must not leak state).
		e1.Encode(x, b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: repeated Encode differs at dim %d (scratch leak)", k, i)
			}
		}
	}
}

func TestEncodeSimilarInputsSimilarVectors(t *testing.T) {
	// Core HDC property: encodings preserve locality. A slightly perturbed
	// input must be far more similar to the original than a random input.
	r := rng.New(8)
	x := randInput(r, 40)
	xPert := append([]float64(nil), x...)
	for i := range xPert {
		xPert[i] += 0.02 * r.NormFloat64()
	}
	xRand := randInput(r, 40)
	for _, k := range Kinds() {
		e := MustNew(k, testCfg(40))
		hx, hp, hr := hdc.NewVec(512), hdc.NewVec(512), hdc.NewVec(512)
		e.Encode(x, hx)
		e.Encode(xPert, hp)
		e.Encode(xRand, hr)
		simPert := cosine(hx, hp)
		simRand := cosine(hx, hr)
		if simPert <= simRand {
			t.Errorf("%v: perturbed similarity %.3f <= random similarity %.3f", k, simPert, simRand)
		}
		if simPert < 0.5 {
			t.Errorf("%v: perturbed similarity %.3f too low", k, simPert)
		}
	}
}

func cosine(a, b hdc.Vec) float64 {
	num := float64(a.Dot(b))
	den := float64(a.Norm2()) * float64(b.Norm2())
	if den == 0 {
		return 0
	}
	return num * num / den * sign(num)
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

func TestRPOutputsAreSigns(t *testing.T) {
	e := MustNew(RP, testCfg(20))
	out := hdc.NewVec(512)
	e.Encode(randInput(rng.New(1), 20), out)
	for i, v := range out {
		if v != 1 && v != -1 {
			t.Fatalf("RP output dim %d = %d, want ±1", i, v)
		}
	}
}

func TestLevelEncodersRangeBounded(t *testing.T) {
	// Bundled bipolar windows: |H_i| cannot exceed the number of bundled
	// vectors (features for level-id/permute, windows for ngram/GENERIC).
	const features = 20
	x := randInput(rng.New(2), features)
	cases := map[Kind]int32{
		LevelID: features,
		Permute: features,
		Ngram:   features - 3 + 1,
		Generic: features - 3 + 1,
	}
	for k, bound := range cases {
		e := MustNew(k, testCfg(features))
		out := hdc.NewVec(512)
		e.Encode(x, out)
		for i, v := range out {
			if v > bound || v < -bound {
				t.Fatalf("%v: |out[%d]| = %d exceeds bundle bound %d", k, i, v, bound)
			}
		}
		// Parity check: sum of W ±1 values has the parity of W.
		if (out[0]-bound)%2 != 0 {
			t.Fatalf("%v: out[0] = %d has wrong parity for %d bundled vectors", k, out[0], bound)
		}
	}
}

func TestNgramIgnoresGlobalOrder(t *testing.T) {
	// Swapping two distant windows' content must leave the ngram encoding
	// nearly unchanged (same multiset of windows at the boundary level),
	// while the GENERIC encoding with ids must change substantially.
	const features = 32
	cfg := testCfg(features)
	x := make([]float64, features)
	for i := range x {
		x[i] = float64(i%4) / 4
	}
	// Move a distinctive block from the front to the back.
	y := append([]float64(nil), x...)
	block := []float64{0.9, 0.1, 0.9}
	copy(y[0:3], block)
	z := append([]float64(nil), x...)
	copy(z[26:29], block)

	ng := MustNew(Ngram, cfg)
	hy, hz := hdc.NewVec(512), hdc.NewVec(512)
	ng.Encode(y, hy)
	ng.Encode(z, hz)
	ngramSim := cosine(hy, hz)

	gen := MustNew(Generic, cfg)
	gy, gz := hdc.NewVec(512), hdc.NewVec(512)
	gen.Encode(y, gy)
	gen.Encode(z, gz)
	genSim := cosine(gy, gz)

	if ngramSim <= genSim {
		t.Errorf("ngram should be more invariant to block position: ngram %.3f vs GENERIC %.3f", ngramSim, genSim)
	}
}

func TestGenericWithoutIDEqualsNgram(t *testing.T) {
	cfg := testCfg(24)
	cfg.UseID = false
	x := randInput(rng.New(3), 24)
	a, b := hdc.NewVec(512), hdc.NewVec(512)
	MustNew(Generic, cfg).Encode(x, a)
	MustNew(Ngram, cfg).Encode(x, b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("id-less GENERIC differs from ngram at dim %d", i)
		}
	}
}

func TestPermuteDistinguishesPosition(t *testing.T) {
	// "abc" vs "bca": permutation encoding must produce distinct vectors.
	cfg := testCfg(3)
	e := MustNew(Permute, cfg)
	a, b := hdc.NewVec(512), hdc.NewVec(512)
	e.Encode([]float64{0.1, 0.5, 0.9}, a)
	e.Encode([]float64{0.5, 0.9, 0.1}, b)
	if cosine(a, b) > 0.9 {
		t.Error("permute encoding failed to distinguish rotated inputs")
	}
}

func TestEncodePanicsOnBadArgs(t *testing.T) {
	e := MustNew(LevelID, testCfg(10))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong feature count did not panic")
			}
		}()
		e.Encode(make([]float64, 5), hdc.NewVec(512))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong output length did not panic")
			}
		}()
		e.Encode(make([]float64, 10), hdc.NewVec(64))
	}()
}

func TestEncodeAll(t *testing.T) {
	e := MustNew(Generic, testCfg(12))
	X := [][]float64{randInput(rng.New(1), 12), randInput(rng.New(2), 12)}
	vs := EncodeAll(e, X)
	if len(vs) != 2 || len(vs[0]) != 512 {
		t.Fatalf("EncodeAll shape wrong: %d × %d", len(vs), len(vs[0]))
	}
	single := hdc.NewVec(512)
	e.Encode(X[1], single)
	for i := range single {
		if vs[1][i] != single[i] {
			t.Fatal("EncodeAll disagrees with Encode")
		}
	}
}

// TestEncodeAllWorkersMatchesEncode checks that batch encoding sees the
// encoder's current material: for every kind, pristine and with a corrupted
// level memory, and for every worker count and batch size around the serial
// cutoff, each row equals Encode on the source encoder, and the source's
// material is unchanged afterwards.
func TestEncodeAllWorkersMatchesEncode(t *testing.T) {
	r := rng.New(9)
	X := make([][]float64, 157)
	for i := range X {
		X[i] = randInput(r, len(faultInput))
	}
	for _, k := range Kinds() {
		for _, corrupt := range []bool{false, true} {
			if corrupt && k == RP {
				continue // RP has no level memory
			}
			t.Run(fmt.Sprintf("%v/corrupt=%v", k, corrupt), func(t *testing.T) {
				e := MustNew(k, faultCfg(true))
				if corrupt {
					f := e.(Faultable)
					for _, row := range f.LevelRows() {
						row.SetBit(11, 1-row.Bit(11))
					}
					f.RebuildDerived()
				}
				want := make([]hdc.Vec, len(X))
				differs := false
				pristine := MustNew(k, faultCfg(true))
				for i, x := range X {
					want[i] = encodeOne(e, x)
					differs = differs || !vecsEqual(want[i], encodeOne(pristine, x))
				}
				if differs != corrupt {
					t.Fatalf("corrupted material changes the encoding: %v, want %v", differs, corrupt)
				}
				for _, workers := range []int{0, 1, 2, 3, 4} {
					w := parallel.Workers(workers)
					for _, n := range []int{0, 1, 2*w - 1, 2 * w, len(X)} {
						got := EncodeAllWorkers(e, X[:n], workers)
						if len(got) != n {
							t.Fatalf("workers=%d n=%d: %d rows", workers, n, len(got))
						}
						for i := range got {
							if !vecsEqual(got[i], want[i]) {
								t.Fatalf("workers=%d n=%d: row %d differs from Encode", workers, n, i)
							}
						}
					}
				}
				for i, x := range X {
					if !vecsEqual(encodeOne(e, x), want[i]) {
						t.Fatalf("row %d: batch encoding changed the source's material", i)
					}
				}
			})
		}
	}
}

// TestPoolMatchesSequential checks EncodeAllWorkers' pool of per-worker
// clones on a 200-row Generic batch: four workers give EncodeAll's rows on a
// fresh encoder.
func TestPoolMatchesSequential(t *testing.T) {
	cfg := testCfg(24)
	r := rng.New(9)
	X := make([][]float64, 200)
	for i := range X {
		X[i] = randInput(r, 24)
	}
	seq := EncodeAll(MustNew(Generic, cfg), X)
	par := EncodeAllWorkers(MustNew(Generic, cfg), X, 4)
	if len(par) != len(seq) {
		t.Fatalf("parallel gave %d rows, sequential %d", len(par), len(seq))
	}
	for i := range seq {
		if len(par[i]) != cfg.D {
			t.Fatalf("sample %d: parallel row has %d dims, want D=%d", i, len(par[i]), cfg.D)
		}
		for j := range seq[i] {
			if seq[i][j] != par[i][j] {
				t.Fatalf("sample %d dim %d: parallel %d != sequential %d",
					i, j, par[i][j], seq[i][j])
			}
		}
	}
}

func TestPoolEmptyInput(t *testing.T) {
	e := MustNew(LevelID, testCfg(8))
	if out := EncodeAllWorkers(e, nil, 2); len(out) != 0 {
		t.Fatal("non-empty output for empty input")
	}
}

// TestPoolDefaultWorkers checks that workers = 0 means at least one worker
// and, on a batch large enough for the pool, encodes like EncodeAll.
func TestPoolDefaultWorkers(t *testing.T) {
	if parallel.Workers(0) < 1 {
		t.Fatal("no workers")
	}
	cfg := testCfg(8)
	r := rng.New(4)
	X := make([][]float64, 2*runtime.GOMAXPROCS(0)+1)
	for i := range X {
		X[i] = randInput(r, 8)
	}
	seq := EncodeAll(MustNew(Permute, cfg), X)
	par := EncodeAllWorkers(MustNew(Permute, cfg), X, 0)
	for i := range seq {
		if !vecsEqual(par[i], seq[i]) {
			t.Fatalf("sample %d: workers=0 differs from EncodeAll", i)
		}
	}
}

// TestNewBoundsMaterial checks the material cap: the widest configurations
// the repository builds construct, a model-file header claiming 2^20
// features does not, and the footprint New checks bounds what an encoder
// allocates through its first encodes.
func TestNewBoundsMaterial(t *testing.T) {
	for _, k := range Kinds() {
		if _, err := New(k, Config{D: 4096, Features: 256, Bins: 64, N: 5, UseID: true}); err != nil {
			t.Errorf("%v at 256 features, D=4096: %v", k, err)
		}
		if _, err := New(k, Config{D: 128, Features: 1 << 20, Bins: 16, N: 3, UseID: true}); err == nil {
			t.Errorf("%v at 2^20 features accepted", k)
		}
	}
	if _, err := New(RP, Config{D: 1 << 20, Features: 1 << 30}); err == nil {
		t.Error("RP with a 2^50-element projection accepted")
	}
	for _, k := range Kinds() {
		cfg := Config{D: 1024, Features: 200, Bins: 64, N: 4, UseID: true, Lo: 0, Hi: 1}.Default()
		x := randInput(rng.New(3), cfg.Features)
		out, bin := hdc.NewVec(cfg.D), hdc.NewBinVec(cfg.D)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e := MustNew(k, cfg)
		e.Encode(x, out)
		e.EncodeBin(x, bin)
		runtime.ReadMemStats(&after)
		n, useID := cfg.N, k == Generic
		if k == LevelID {
			n, useID = 1, true
		}
		// The fixed-size structs footprint leaves out fit in a few KiB.
		if got, limit := after.TotalAlloc-before.TotalAlloc, footprint(k, cfg, n, useID)+16<<10; float64(got) > limit {
			t.Errorf("%v: construction and first encodes allocated %d bytes, footprint %.0f", k, got, limit)
		}
	}
}

func BenchmarkGenericEncode(b *testing.B) {
	cfg := Config{D: 4096, Features: 128, Bins: 64, Lo: 0, Hi: 1, N: 3, UseID: true, Seed: 1}
	e := MustNew(Generic, cfg)
	x := randInput(rng.New(1), 128)
	out := hdc.NewVec(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Encode(x, out)
	}
}

func BenchmarkLevelIDEncode(b *testing.B) {
	cfg := Config{D: 4096, Features: 128, Bins: 64, Lo: 0, Hi: 1, Seed: 1}
	e := MustNew(LevelID, cfg)
	x := randInput(rng.New(1), 128)
	out := hdc.NewVec(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Encode(x, out)
	}
}

func BenchmarkRPEncode(b *testing.B) {
	cfg := Config{D: 4096, Features: 128, Lo: 0, Hi: 1, Seed: 1}
	e := MustNew(RP, cfg)
	x := randInput(rng.New(1), 128)
	out := hdc.NewVec(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Encode(x, out)
	}
}

// TestEncoderGoldenBytes pins the absolute output of every encoder family:
// the SHA-256 of Encode (little-endian int32) and of EncodeBin (little-endian
// words) over a fixed seeded input set. Every other bit-identity check in
// this package is relative (EncodeBin ≡ PackSigns(Encode), clone ≡
// original), so a change to level or id generation, rotation or bundling
// would pass them while changing every model. The hashes were captured
// before the packed-vector types were merged; if this test fails, the
// encoder's arithmetic changed — that is a bug, not a baseline to update.
func TestEncoderGoldenBytes(t *testing.T) {
	golden := map[Kind][2]string{
		RP:      {"6631285daefe5e39d0ad04ba375af37f261eeb462e0e354b8bdd381bb4e59f3b", "5884f4bbc3139fed272afbccb122fdbf656504a395669bb8f8db19b7b21e500c"},
		LevelID: {"50e9eb6edbb94bd352be91e30af986cf9daadaeda3d8144891eb33dcf69d8971", "1a806ea0dbe9611b67ee34f46d352f6d36afce5bda1ba4a4dbf2eaf4daf4efb1"},
		Ngram:   {"683232911a9d1d3d13211e93f4faa95fe7f93e46b8107b590b57935c0678b314", "5bf8c68732392cfd9c13a47dc5401095c24aa6ead92efd7f2e15d18f66941f58"},
		Permute: {"3bbad8b421c7a762744ae4169c186ab24bfb4dbc0d6e7704c18afee464adbdb6", "3b56cd5112b978151daae63ce1dd5df74cb7fbf505926bf1c5d4273c8d55ee12"},
		Generic: {"c20aa626e8c48225c3be81c29fbfa6f0e1ee89c7fadce9757652c93ffb0b5b83", "e3b7d42980965f62513fb3a97c70612264c9dfb0e87d7c2f87f23f184a28f04c"},
	}
	cfg := Config{D: 1024, Features: 24, Bins: 32, Lo: 0, Hi: 1, N: 3, UseID: true, Seed: 17}
	r := rng.New(2024)
	X := make([][]float64, 8)
	for i := range X {
		X[i] = make([]float64, cfg.Features)
		for m := range X[i] {
			X[i][m] = 1.5*r.Float64() - 0.25 // some features clamp to the extreme bins
		}
	}
	for _, k := range Kinds() {
		e := MustNew(k, cfg)
		he, hb := sha256.New(), sha256.New()
		out, bin := hdc.NewVec(cfg.D), hdc.NewBinVec(cfg.D)
		var buf [8]byte
		for _, x := range X {
			e.Encode(x, out)
			for _, v := range out {
				binary.LittleEndian.PutUint32(buf[:4], uint32(v))
				he.Write(buf[:4])
			}
			e.EncodeBin(x, bin)
			for _, w := range bin.Words() {
				binary.LittleEndian.PutUint64(buf[:], w)
				hb.Write(buf[:])
			}
		}
		got := [2]string{hex.EncodeToString(he.Sum(nil)), hex.EncodeToString(hb.Sum(nil))}
		if got != golden[k] {
			t.Errorf("%v: encoder output diverged from the golden bytes:\n got Encode %s EncodeBin %s\nwant Encode %s EncodeBin %s",
				k, got[0], got[1], golden[k][0], golden[k][1])
		}
	}
}

// TestEncodeSetMatchesEncode checks Fit's encode-all: for every kind, with
// a bound just inside and just past int8 (127 and 128 bundled rows for the
// level kinds), EncodeSet is an int8 set exactly when the bound fits and,
// at every worker count, row i holds Encode(X[i]).
func TestEncodeSetMatchesEncode(t *testing.T) {
	r := rng.New(12)
	for _, k := range Kinds() {
		for _, rows := range []int{127, 128} {
			features := rows
			switch k {
			case Ngram, Generic:
				features = rows + 2 // windows of 3
			}
			cfg := testCfg(features)
			e := MustNew(k, cfg)
			X := make([][]float64, 21)
			for i := range X {
				X[i] = randInput(r, features)
			}
			wantNarrow := k == RP || rows <= 127
			if e.bound() > 127 == wantNarrow {
				t.Fatalf("%v over %d rows: bound %d", k, rows, e.bound())
			}
			for _, workers := range []int{1, 2, 3} {
				s := EncodeSet(e, X, workers)
				if s.Narrow() != wantNarrow || s.Len() != len(X) || s.D() != e.D() {
					t.Fatalf("%v over %d rows, workers=%d: narrow=%v len=%d D=%d", k, rows, workers, s.Narrow(), s.Len(), s.D())
				}
				scratch := hdc.NewVec(e.D())
				for i, x := range X {
					if got := s.Widen(i, scratch); !vecsEqual(got, encodeOne(e, x)) {
						t.Fatalf("%v over %d rows, workers=%d: row %d differs from Encode", k, rows, workers, i)
					}
				}
			}
		}
	}
}
