// Package encoding implements the hyperdimensional encodings compared in
// the GENERIC paper: random projection (RP), level-id, ngram, permutation,
// and the proposed GENERIC encoding (Eq. 1 / Fig. 2).
//
// All encoders map a feature vector x ∈ ℝᵈ to an integer hypervector
// H(x) ∈ ℤᴰ. Level-based encoders quantize each feature into one of Bins
// level hypervectors and bundle bound/permuted levels; RP projects x through
// a random bipolar matrix and takes signs.
//
// Every encoder also emits the sign-binarized hypervector sign(H(x)) packed
// into an hdc.BinVec (BinaryEncoder), the query side of the binary inference
// engine. A level-based encoder stages its bundle once in an hdc.Acc and
// reads it out either way, so EncodeBin(x) is PackSigns(Encode(x)) by
// construction; the equivalence tests lock it bit-identically.
package encoding

import (
	"fmt"

	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/perf"
	"github.com/edge-hdc/generic/internal/rng"
	"github.com/edge-hdc/generic/internal/telemetry"
)

// Kind selects an encoding family.
type Kind int

const (
	// RP is random-projection encoding: H = sign(Φx), Φ ∈ {±1}^{D×d}.
	RP Kind = iota
	// LevelID binds each feature's level hypervector with a per-index id:
	// H = Σ_m id_m ⊕ ℓ(x_m).
	LevelID
	// Ngram bundles windows of n consecutive features, each window the XOR
	// of its intra-window-permuted levels; no global position information.
	Ngram
	// Permute binds position by permutation: H = Σ_m ρ(m)(ℓ(x_m)).
	Permute
	// Generic is the paper's encoding: ngram windows, each optionally bound
	// with a per-window id to restore global order (Eq. 1).
	Generic
)

var kindNames = map[Kind]string{
	RP: "RP", LevelID: "level-id", Ngram: "ngram", Permute: "permute", Generic: "GENERIC",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Kinds lists all encodings in the paper's Table 1 column order.
func Kinds() []Kind { return []Kind{RP, LevelID, Ngram, Permute, Generic} }

// Config parameterizes an encoder.
type Config struct {
	D        int     // hypervector dimensionality (multiple of 64)
	Features int     // input feature count d
	Bins     int     // quantization bins for level encoders
	Lo, Hi   float64 // quantization range
	N        int     // window length for Ngram/Generic (paper default 3)
	UseID    bool    // Generic only: bind per-window ids (global order)
	Seed     uint64  // hypervector material seed
}

// Default fills unset fields with the paper's defaults: D=4096, Bins=64, N=3.
func (c Config) Default() Config {
	if c.D == 0 {
		c.D = 4096
	}
	if c.Bins == 0 {
		c.Bins = 64
	}
	if c.N == 0 {
		c.N = 3
	}
	if c.Hi == c.Lo {
		c.Hi = c.Lo + 1
	}
	return c
}

// Encoder maps feature vectors into integer hypervectors.
type Encoder interface {
	// Encode writes H(x) into out, which must have length D().
	Encode(x []float64, out hdc.Vec)
	// D returns the dimensionality of produced hypervectors.
	D() int
	// Kind identifies the encoding family.
	Kind() Kind
	// Config returns the (defaulted) configuration the encoder was built
	// with, sufficient to reconstruct an identical encoder.
	Config() Config
}

// BinaryEncoder is implemented by encoders that can produce a packed
// sign-binarized hypervector directly. All library encoders implement it.
type BinaryEncoder interface {
	Encoder
	// EncodeBin writes sign(H(x)) into out, which must have dimensionality
	// D(). The result is bit-identical to packing the signs of Encode(x).
	EncodeBin(x []float64, out *hdc.BinVec)
}

// AsBinary reports e's binarized query path, if it has one.
func AsBinary(e Encoder) (BinaryEncoder, bool) {
	be, ok := e.(BinaryEncoder)
	return be, ok
}

// New constructs an encoder of the given kind. It returns an error for
// invalid configurations (e.g. fewer features than the window length).
func New(kind Kind, cfg Config) (Encoder, error) {
	cfg = cfg.Default()
	if cfg.Features <= 0 {
		return nil, fmt.Errorf("encoding: Features must be positive, got %d", cfg.Features)
	}
	if cfg.D <= 0 || cfg.D%hdc.WordBits != 0 {
		return nil, fmt.Errorf("encoding: D=%d must be a positive multiple of %d", cfg.D, hdc.WordBits)
	}
	// Level-based encoders hand Bins straight to hdc.NewLevelTable, which
	// panics outside its ladder range; surface that as a config error here.
	if kind != RP && (cfg.Bins < 2 || (cfg.Bins-1)*2 > cfg.D) {
		return nil, fmt.Errorf("encoding: Bins=%d outside the level-ladder range [2, D/2+1] for D=%d", cfg.Bins, cfg.D)
	}
	switch kind {
	case RP:
		return newRP(cfg), nil
	case LevelID:
		// Level-id is the windowed encoding at window length 1 with ids; its
		// Config still reports the caller's N and UseID.
		return newWindowed(cfg, kind, 1, true), nil
	case Ngram, Generic:
		if cfg.N < 1 {
			return nil, fmt.Errorf("encoding: window length N=%d must be positive", cfg.N)
		}
		if cfg.Features < cfg.N {
			return nil, fmt.Errorf("encoding: %d features < window length %d", cfg.Features, cfg.N)
		}
		// Config reports the actual binding state: plain ngram never binds ids.
		cfg.UseID = kind == Generic && cfg.UseID
		return newWindowed(cfg, kind, cfg.N, cfg.UseID), nil
	case Permute:
		return newPermute(cfg), nil
	}
	return nil, fmt.Errorf("encoding: unknown kind %v", kind)
}

// MustNew is New that panics on error, for tests and examples.
func MustNew(kind Kind, cfg Config) Encoder {
	e, err := New(kind, cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// EncodeAll encodes every row of X into a slice of fresh hypervectors.
func EncodeAll(e Encoder, X [][]float64) []hdc.Vec {
	sp := perf.Begin("encode.batch")
	defer sp.End()
	telemetry.EncodeBatches.Inc()
	telemetry.EncodeBatchSamples.Add(int64(len(X)))
	out := make([]hdc.Vec, len(X))
	for i, x := range X {
		out[i] = hdc.NewVec(e.D())
		e.Encode(x, out[i])
	}
	return out
}

// ---------------------------------------------------------------------------

// rpEncoder implements classic random-projection encoding. The projection
// matrix rows are bipolar ±1; the output is the per-dimension sign. Being
// linear in x up to the final sign, RP cannot separate classes whose
// difference is invisible to first-order statistics — the failure Table 1
// shows on EEG/EMG.
type rpEncoder struct {
	cfg  Config
	d    int
	rows [][]float64 // rows[m][i] ∈ {−1,+1}, one row per feature
	acc  []float64   // scratch: projection accumulator, reused across calls
}

func newRP(cfg Config) *rpEncoder {
	r := rng.New(cfg.Seed)
	e := &rpEncoder{cfg: cfg, d: cfg.D, rows: make([][]float64, cfg.Features), acc: make([]float64, cfg.D)}
	for m := range e.rows {
		row := make([]float64, cfg.D)
		for i := 0; i < cfg.D; i += hdc.WordBits {
			w := r.Uint64()
			for b := 0; b < hdc.WordBits; b++ {
				if w>>uint(b)&1 == 1 {
					row[i+b] = 1
				} else {
					row[i+b] = -1
				}
			}
		}
		e.rows[m] = row
	}
	return e
}

func (e *rpEncoder) D() int         { return e.d }
func (e *rpEncoder) Kind() Kind     { return RP }
func (e *rpEncoder) Config() Config { return e.cfg }

// project accumulates the projection Φx into e.acc.
//
//generic:hotpath
func (e *rpEncoder) project(x []float64) {
	acc := e.acc
	for i := range acc {
		acc[i] = 0
	}
	for m, v := range x {
		row := e.rows[m]
		if v == 0 {
			continue
		}
		for i, p := range row {
			acc[i] += v * p
		}
	}
}

//generic:hotpath
func (e *rpEncoder) Encode(x []float64, out hdc.Vec) {
	checkEncodeArgs(len(e.rows), e.d, x, out)
	e.project(x)
	for i, s := range e.acc {
		if s >= 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
}

// EncodeBin for RP packs the projection signs directly: bit i = 1 exactly
// when the accumulated projection is >= 0, matching sign(Φx) → ±1 → pack.
//
//generic:hotpath
func (e *rpEncoder) EncodeBin(x []float64, out *hdc.BinVec) {
	checkEncodeBinArgs(len(e.rows), e.d, x, out)
	e.project(x)
	words := out.Words()
	for w := range words {
		var word uint64
		base := w * hdc.WordBits
		for b := 0; b < hdc.WordBits; b++ {
			if e.acc[base+b] >= 0 {
				word |= 1 << uint(b)
			}
		}
		words[w] = word
	}
}

// ---------------------------------------------------------------------------

// permuteEncoder binds position by rotation (Fig. 2b).
type permuteEncoder struct {
	cfg    Config
	levels *hdc.LevelTable // material, shared with CloneMaterial copies
	acc    *hdc.Acc
}

func newPermute(cfg Config) *permuteEncoder {
	e := &permuteEncoder{cfg: cfg, acc: hdc.NewAcc(cfg.D)}
	e.Regenerate()
	return e
}

func (e *permuteEncoder) D() int         { return e.cfg.D }
func (e *permuteEncoder) Kind() Kind     { return Permute }
func (e *permuteEncoder) Config() Config { return e.cfg }

// bundle stages ρ(m)(ℓ(x_m)) as row m of e.acc, for every feature m.
//
//generic:hotpath
func (e *permuteEncoder) bundle(x []float64) {
	e.acc.Reset(len(x))
	for m, v := range x {
		lv := e.levels.Level(e.levels.Quantize(v, e.cfg.Lo, e.cfg.Hi))
		hdc.RotateInto(e.acc.Row(m), lv, m)
	}
}

//generic:hotpath
func (e *permuteEncoder) Encode(x []float64, out hdc.Vec) {
	checkEncodeArgs(e.cfg.Features, e.cfg.D, x, out)
	e.bundle(x)
	e.acc.Bipolar(out)
}

//generic:hotpath
func (e *permuteEncoder) EncodeBin(x []float64, out *hdc.BinVec) {
	checkEncodeBinArgs(e.cfg.Features, e.cfg.D, x, out)
	e.bundle(x)
	e.acc.MajorityInto(out)
}

// ---------------------------------------------------------------------------

// windowedEncoder implements the level-id, ngram and GENERIC encodings
// (Eq. 1): every length-n window's levels are permuted by their
// intra-window offset and XORed; with ids on, each window is also XORed
// with its own id (generated by rotating a seed id, §4.3.1) to restore the
// global order of windows. Ngram is GENERIC without ids, and level-id
// (Fig. 2c, H = Σ_m id_m ⊕ ℓ(x_m)) is window length 1 with ids.
type windowedEncoder struct {
	cfg   Config
	kind  Kind
	n     int // window length: cfg.N, or 1 for level-id
	useID bool
	// Material, shared with CloneMaterial copies (see MaterialCloner).
	// rotLevels[j][bin] = ρ(j)(ℓ(bin)), precomputed for the n offsets.
	rotLevels [][]*hdc.BinVec
	idGen     *hdc.IDGenerator // nil when !useID
	ids       []*hdc.BinVec    // per-window ids (nil when !useID)
	quant     *hdc.LevelTable
	// Scratch, private to each encoder.
	acc  *hdc.Acc
	bins []int // per-feature quantized levels, reused across calls
}

func newWindowed(cfg Config, kind Kind, n int, useID bool) *windowedEncoder {
	e := &windowedEncoder{cfg: cfg, kind: kind, n: n, useID: useID}
	e.initScratch()
	e.Regenerate()
	return e
}

// initScratch gives the encoder its private working set. The accumulator
// sizes its staging on the first encode, so a clone that never encodes
// does not pay for it.
func (e *windowedEncoder) initScratch() {
	e.acc = hdc.NewAcc(e.cfg.D)
	e.bins = make([]int, e.cfg.Features)
}

func (e *windowedEncoder) D() int         { return e.cfg.D }
func (e *windowedEncoder) Kind() Kind     { return e.kind }
func (e *windowedEncoder) Config() Config { return e.cfg }

// bundle quantizes x and stages window i as row i of e.acc. The served
// shapes, the default window length 3 and level-id's n = 1 with ids, bind
// in one pass over the words; other shapes fold in one vector at a time.
//
//generic:hotpath
func (e *windowedEncoder) bundle(x []float64) {
	n, bins := e.n, e.bins
	for m, v := range x {
		bins[m] = e.quant.Quantize(v, e.cfg.Lo, e.cfg.Hi)
	}
	windows := len(x) - n + 1
	e.acc.Reset(windows)
	for i := 0; i < windows; i++ {
		row := e.acc.Row(i)
		switch {
		case n == 3:
			dst := row.Words()
			r0 := e.rotLevels[0][bins[i]].Words()[:len(dst)]
			r1 := e.rotLevels[1][bins[i+1]].Words()[:len(dst)]
			r2 := e.rotLevels[2][bins[i+2]].Words()[:len(dst)]
			if e.useID {
				id := e.ids[i].Words()[:len(dst)]
				for w := range dst {
					dst[w] = r0[w] ^ r1[w] ^ r2[w] ^ id[w]
				}
			} else {
				for w := range dst {
					dst[w] = r0[w] ^ r1[w] ^ r2[w]
				}
			}
		case n == 1 && e.useID:
			hdc.XorInto(row, e.rotLevels[0][bins[i]], e.ids[i])
		default:
			row.CopyFrom(e.rotLevels[0][bins[i]])
			for j := 1; j < n; j++ {
				hdc.XorAccumulate(row, e.rotLevels[j][bins[i+j]])
			}
			if e.useID {
				hdc.XorAccumulate(row, e.ids[i])
			}
		}
	}
}

//generic:hotpath
func (e *windowedEncoder) Encode(x []float64, out hdc.Vec) {
	checkEncodeArgs(e.cfg.Features, e.cfg.D, x, out)
	e.bundle(x)
	e.acc.Bipolar(out)
}

//generic:hotpath
func (e *windowedEncoder) EncodeBin(x []float64, out *hdc.BinVec) {
	checkEncodeBinArgs(e.cfg.Features, e.cfg.D, x, out)
	e.bundle(x)
	e.acc.MajorityInto(out)
}

//generic:hotpath
func checkEncodeArgs(features, d int, x []float64, out hdc.Vec) {
	if len(x) != features {
		panic(fmt.Sprintf("encoding: input has %d features, encoder expects %d", len(x), features))
	}
	if len(out) != d {
		panic(fmt.Sprintf("encoding: output length %d, want %d", len(out), d))
	}
}

//generic:hotpath
func checkEncodeBinArgs(features, d int, x []float64, out *hdc.BinVec) {
	if len(x) != features {
		panic(fmt.Sprintf("encoding: input has %d features, encoder expects %d", len(x), features))
	}
	if out.D() != d {
		panic(fmt.Sprintf("encoding: binary output dimensionality %d, want %d", out.D(), d))
	}
}
