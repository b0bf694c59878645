package encoding

import (
	"testing"

	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/rng"
)

// levelKinds are the encodings refEncode models: every level-based family.
var levelKinds = []Kind{LevelID, Ngram, Permute, Generic}

// refEncode is the absolute reference for the level-based encoders. It
// rebuilds the material from cfg.Seed the way Regenerate documents (the
// level table from the first split, the id generator from the second) and
// bundles Eq. 1 naively: one ±1 term per window and dimension, with rotation
// and binding spelled out bit by bit. It shares no bundling, rotation or
// binding code with the encoders, so it catches a counting bug that the
// relative checks (EncodeBin ≡ PackSigns(Encode), clone ≡ original) cannot.
//
// LevelID is window length 1 with ids; Permute is window length 1 whose
// level is rotated by the window index instead of the intra-window offset.
func refEncode(kind Kind, cfg Config, x []float64) hdc.Vec {
	r := rng.New(cfg.Seed)
	levels := hdc.NewLevelTable(cfg.D, cfg.Bins, r.Split())
	n, useID := cfg.N, cfg.UseID
	switch kind {
	case LevelID:
		n, useID = 1, true
	case Ngram:
		useID = false
	case Permute:
		n, useID = 1, false
	}
	var seed *hdc.BinVec
	if useID {
		seed = hdc.NewIDGenerator(cfg.D, r.Split()).Seed()
	}
	q := make([]int, len(x))
	for m, v := range x {
		q[m] = levels.Quantize(v, cfg.Lo, cfg.Hi)
	}
	d := cfg.D
	// rotBit is bit i of ρ(k)(v): rotation moves bit i−k to position i.
	rotBit := func(v *hdc.BinVec, k, i int) int { return v.Bit(((i-k)%d + d) % d) }
	out := make(hdc.Vec, d)
	for i := 0; i < d; i++ {
		for w := 0; w+n <= len(x); w++ {
			b := 0
			for j := 0; j < n; j++ {
				shift := j
				if kind == Permute {
					shift = w
				}
				b ^= rotBit(levels.Level(q[w+j]), shift, i)
			}
			if useID {
				b ^= rotBit(seed, w, i)
			}
			out[i] += int32(2*b - 1)
		}
	}
	return out
}

// checkAgainstReference encodes x both ways with e and compares against
// refEncode rebuilt from e.Config(): Encode must equal the reference and
// EncodeBin its packed signs.
func checkAgainstReference(t *testing.T, e Encoder, x []float64) {
	t.Helper()
	cfg := e.Config()
	want := refEncode(e.Kind(), cfg, x)
	got := hdc.NewVec(cfg.D)
	e.Encode(x, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%v %+v: Encode dim %d = %d, reference %d", e.Kind(), cfg, i, got[i], want[i])
		}
	}
	wantBin := hdc.NewBinVec(cfg.D)
	wantBin.PackSigns(want)
	gotBin := hdc.NewBinVec(cfg.D)
	e.EncodeBin(x, gotBin)
	if !gotBin.Equal(wantBin) {
		t.Fatalf("%v %+v: EncodeBin != PackSigns(reference)", e.Kind(), cfg)
	}
}

// TestEncodeMatchesReference pins every level-based encoder to refEncode
// over seeded shapes: window lengths 1…6 for the windowed families, window
// counts 1…40 (below, at and across several 8-row counting blocks), D in
// {64, 512, 1024} with Bins drawn from the range valid for D, and ids on and
// off. Inputs spill past [Lo, Hi] so the clamp bins are exercised.
func TestEncodeMatchesReference(t *testing.T) {
	r := rng.New(14)
	dims := []int{64, 512, 1024}
	build := func(kind Kind, features, n int) Encoder {
		d := dims[r.Intn(len(dims))]
		maxBins := d/2 + 1
		if maxBins > 64 {
			maxBins = 64
		}
		cfg := Config{
			D: d, Features: features, Bins: 2 + r.Intn(maxBins-1), Lo: -1, Hi: 1,
			N: n, UseID: r.Bool(), Seed: r.Uint64(),
		}
		return MustNew(kind, cfg)
	}
	input := func(features int) []float64 {
		x := make([]float64, features)
		for m := range x {
			x[m] = 2.5*r.Float64() - 1.25
		}
		return x
	}
	for windows := 1; windows <= 40; windows++ {
		var encs []Encoder
		for n := 1; n <= 6; n++ {
			kind := Ngram
			if r.Bool() {
				kind = Generic
			}
			encs = append(encs, build(kind, windows+n-1, n))
		}
		encs = append(encs,
			build(LevelID, windows, 1+r.Intn(6)),
			build(Permute, windows, 1+r.Intn(6)))
		for _, e := range encs {
			for trial := 0; trial < 2; trial++ {
				checkAgainstReference(t, e, input(e.Config().Features))
			}
		}
	}
}
