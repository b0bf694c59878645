package encoding

import (
	"fmt"
	"testing"

	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/rng"
)

// binTestConfigs spans every encoder family and, for the windowed fused
// kernel, window counts below, at, and beyond the Harley-Seal block size of
// eight (windows = Features − N + 1), with and without the id binding.
var binTestConfigs = []struct {
	kind Kind
	cfg  Config
}{
	{RP, Config{D: 512, Features: 16, Lo: 0, Hi: 1, Seed: 11}},
	{LevelID, Config{D: 512, Features: 16, Lo: 0, Hi: 1, Seed: 12}},
	{Permute, Config{D: 512, Features: 16, Lo: 0, Hi: 1, Seed: 13}},
	{Generic, Config{D: 2048, Features: 128, Lo: 0, Hi: 1, Seed: 1, UseID: true}},    // 127 windows: blocks + remainder
	{Generic, Config{D: 1024, Features: 21, N: 4, Lo: -1, Hi: 1, Seed: 7}},           // default gather path, no id
	{Generic, Config{D: 512, Features: 5, N: 2, Lo: 0, Hi: 1, Seed: 2}},              // 4 windows: remainder only
	{Generic, Config{D: 512, Features: 9, N: 2, Lo: 0, Hi: 1, Seed: 3, UseID: true}}, // exactly one block
	{Generic, Config{D: 512, Features: 10, N: 3, Lo: 0, Hi: 1, Seed: 5, UseID: true}},
	{Generic, Config{D: 512, Features: 12, N: 3, Lo: 0, Hi: 1, Seed: 6}}, // 10 windows: block + 2 remainder
	{Ngram, Config{D: 512, Features: 9, N: 2, Lo: 0, Hi: 1, Seed: 3}},
	{Ngram, Config{D: 1024, Features: 30, N: 5, Lo: 0, Hi: 1, Seed: 9}},
}

func randomInput(n int, r *rng.Rand) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = r.Float64()
	}
	return x
}

// TestEncodeBinEquivalence locks the EncodeBin contract: EncodeBin(x)
// is bit-identical to PackSigns(Encode(x)) for every library encoder.
func TestEncodeBinEquivalence(t *testing.T) {
	for _, tc := range binTestConfigs {
		t.Run(fmt.Sprintf("%v_F%d_N%d_id%v", tc.kind, tc.cfg.Features, tc.cfg.N, tc.cfg.UseID), func(t *testing.T) {
			e := MustNew(tc.kind, tc.cfg)
			cfg := tc.cfg.Default()
			r := rng.New(tc.cfg.Seed * 1000003)
			ref := hdc.NewVec(cfg.D)
			want := hdc.NewBinVec(cfg.D)
			got := hdc.NewBinVec(cfg.D)
			for trial := 0; trial < 20; trial++ {
				x := randomInput(cfg.Features, r)
				e.Encode(x, ref)
				want.PackSigns(ref)
				e.EncodeBin(x, got)
				if !got.Equal(want) {
					t.Fatalf("trial %d: EncodeBin != PackSigns(Encode)", trial)
				}
			}
		})
	}
}

// TestEncodeBinCloneMaterial checks the pooled-clone path the pipeline's
// concurrent Predict relies on: a material clone must produce the same
// binarized bits as the primary encoder.
func TestEncodeBinCloneMaterial(t *testing.T) {
	for _, tc := range binTestConfigs {
		e := MustNew(tc.kind, tc.cfg)
		clone := e.CloneMaterial()
		cfg := tc.cfg.Default()
		r := rng.New(99)
		a := hdc.NewBinVec(cfg.D)
		b := hdc.NewBinVec(cfg.D)
		for trial := 0; trial < 5; trial++ {
			x := randomInput(cfg.Features, r)
			e.EncodeBin(x, a)
			clone.EncodeBin(x, b)
			if !a.Equal(b) {
				t.Fatalf("%v trial %d: clone EncodeBin differs from primary", tc.kind, trial)
			}
		}
	}
}

func TestEncodeBinArgGuards(t *testing.T) {
	e := MustNew(Generic, Config{D: 512, Features: 16, Lo: 0, Hi: 1, Seed: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("EncodeBin with wrong feature count did not panic")
			}
		}()
		e.EncodeBin(make([]float64, 7), hdc.NewBinVec(512))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("EncodeBin with wrong output dimensionality did not panic")
			}
		}()
		e.EncodeBin(make([]float64, 16), hdc.NewBinVec(256))
	}()
}

// TestEncodeBinDeterministic: same input, same bits — across repeated calls
// on one encoder (scratch reuse must not leak state between calls).
func TestEncodeBinDeterministic(t *testing.T) {
	e := MustNew(Generic, Config{D: 1024, Features: 32, N: 3, Lo: 0, Hi: 1, Seed: 21, UseID: true})
	r := rng.New(5)
	x1 := randomInput(32, r)
	x2 := randomInput(32, r)
	first := hdc.NewBinVec(1024)
	e.EncodeBin(x1, first)
	scratch := hdc.NewBinVec(1024)
	e.EncodeBin(x2, scratch) // interleave a different input to dirty scratch
	again := hdc.NewBinVec(1024)
	e.EncodeBin(x1, again)
	if !first.Equal(again) {
		t.Fatal("EncodeBin not deterministic across interleaved calls")
	}
}

func benchInput(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%17) / 17
	}
	return x
}

func BenchmarkEncodeExact(b *testing.B) {
	cfg := Config{D: 2048, Features: 128, Lo: 0, Hi: 1, Seed: 1, UseID: true}
	e := MustNew(Generic, cfg)
	x := benchInput(128)
	out := hdc.NewVec(2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Encode(x, out)
	}
}

func BenchmarkEncodeBin(b *testing.B) {
	cfg := Config{D: 2048, Features: 128, Lo: 0, Hi: 1, Seed: 1, UseID: true}
	e := MustNew(Generic, cfg)
	x := benchInput(128)
	out := hdc.NewBinVec(2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EncodeBin(x, out)
	}
}
