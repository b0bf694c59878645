// Package encoding implements the hyperdimensional encodings compared in
// the GENERIC paper: random projection (RP), level-id, ngram, permutation,
// and the proposed GENERIC encoding (Eq. 1 / Fig. 2).
//
// All encoders map a feature vector x ∈ ℝᵈ to an integer hypervector
// H(x) ∈ ℤᴰ. Level-based encoders quantize each feature into one of Bins
// level hypervectors and bundle bound/permuted levels; RP projects x through
// a random bipolar matrix and takes signs.
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
		return newLevelID(cfg), nil
	case Ngram, Generic:
		if cfg.N < 1 {
			return nil, fmt.Errorf("encoding: window length N=%d must be positive", cfg.N)
		}
		if cfg.Features < cfg.N {
			return nil, fmt.Errorf("encoding: %d features < window length %d", cfg.Features, cfg.N)
		}
		if kind == Ngram {
			return newWindowed(cfg, false, false), nil
		}
		return newWindowed(cfg, cfg.UseID, true), nil
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

//generic:hotpath
func (e *rpEncoder) Encode(x []float64, out hdc.Vec) {
	start := telemetry.Now()
	checkEncodeArgs(len(e.rows), e.d, x, out)
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
	for i, s := range acc {
		if s >= 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	telemetry.EncodeNS.ObserveSince(start)
}

// ---------------------------------------------------------------------------

// levelIDEncoder binds quantized levels with per-index ids (Fig. 2c).
type levelIDEncoder struct {
	cfg Config
	// Material, shared with CloneMaterial copies (see MaterialCloner).
	levels *hdc.LevelTable
	idGen  *hdc.IDGenerator
	ids    []*hdc.BitVec // materialized ρ(m)(seed) per feature index
	// scratch
	bound *hdc.BitVec
	acc   *hdc.Acc
}

func newLevelID(cfg Config) *levelIDEncoder {
	e := &levelIDEncoder{
		cfg:   cfg,
		bound: hdc.NewBitVec(cfg.D),
		acc:   hdc.NewAcc(cfg.D),
	}
	e.Regenerate()
	return e
}

func (e *levelIDEncoder) D() int         { return e.cfg.D }
func (e *levelIDEncoder) Kind() Kind     { return LevelID }
func (e *levelIDEncoder) Config() Config { return e.cfg }

//generic:hotpath
func (e *levelIDEncoder) Encode(x []float64, out hdc.Vec) {
	start := telemetry.Now()
	checkEncodeArgs(len(e.ids), e.cfg.D, x, out)
	e.acc.Reset()
	for m, v := range x {
		lv := e.levels.Level(e.levels.Quantize(v, e.cfg.Lo, e.cfg.Hi))
		hdc.XorInto(e.bound, lv, e.ids[m])
		e.acc.Add(e.bound)
	}
	e.acc.Bipolar(out)
	telemetry.EncodeNS.ObserveSince(start)
}

// ---------------------------------------------------------------------------

// permuteEncoder binds position by rotation (Fig. 2b).
type permuteEncoder struct {
	cfg    Config
	levels *hdc.LevelTable // material, shared with CloneMaterial copies
	rot    *hdc.BitVec
	acc    *hdc.Acc
}

func newPermute(cfg Config) *permuteEncoder {
	e := &permuteEncoder{
		cfg: cfg,
		rot: hdc.NewBitVec(cfg.D),
		acc: hdc.NewAcc(cfg.D),
	}
	e.Regenerate()
	return e
}

func (e *permuteEncoder) D() int         { return e.cfg.D }
func (e *permuteEncoder) Kind() Kind     { return Permute }
func (e *permuteEncoder) Config() Config { return e.cfg }

//generic:hotpath
func (e *permuteEncoder) Encode(x []float64, out hdc.Vec) {
	start := telemetry.Now()
	checkEncodeArgs(e.cfg.Features, e.cfg.D, x, out)
	e.acc.Reset()
	for m, v := range x {
		lv := e.levels.Level(e.levels.Quantize(v, e.cfg.Lo, e.cfg.Hi))
		hdc.RotateInto(e.rot, lv, m)
		e.acc.Add(e.rot)
	}
	e.acc.Bipolar(out)
	telemetry.EncodeNS.ObserveSince(start)
}

// ---------------------------------------------------------------------------

// windowedEncoder implements both the ngram encoding and the proposed
// GENERIC encoding (Eq. 1): every length-n window's levels are permuted by
// their intra-window offset and XORed; GENERIC additionally XORs a
// per-window id (generated by rotating a seed id, §4.3.1) to restore the
// global order of windows. With ids disabled the two coincide.
type windowedEncoder struct {
	cfg     Config
	generic bool
	useID   bool
	// Material, shared with CloneMaterial copies (see MaterialCloner).
	// rotLevels[j][bin] = ρ(j)(ℓ(bin)), precomputed for the n offsets.
	rotLevels [][]*hdc.BitVec
	idGen     *hdc.IDGenerator // nil when !useID
	ids       []*hdc.BitVec    // per-window ids (nil when !useID)
	quant     *hdc.LevelTable
	// Scratch, private to each encoder.
	win  *hdc.BitVec
	acc  *hdc.Acc
	bins []int       // per-feature quantized levels, reused across calls
	bin  *binScratch // fused binarized encode kernel; built on the first EncodeBin
}

func newWindowed(cfg Config, useID, generic bool) *windowedEncoder {
	e := &windowedEncoder{cfg: cfg, generic: generic, useID: useID}
	e.initScratch()
	e.Regenerate()
	return e
}

// initScratch gives the encoder its private working set. The 32 KB-class
// binScratch is left to the first EncodeBin, so a clone that only ever
// encodes exactly (or never encodes) does not pay for it.
func (e *windowedEncoder) initScratch() {
	e.win = hdc.NewBitVec(e.cfg.D)
	e.acc = hdc.NewAcc(e.cfg.D)
	e.bins = make([]int, e.cfg.Features)
}

func (e *windowedEncoder) D() int { return e.cfg.D }

// Config reports the effective configuration (UseID reflects the actual
// binding state; plain ngram always reports false).
func (e *windowedEncoder) Config() Config {
	cfg := e.cfg
	cfg.UseID = e.useID
	return cfg
}

func (e *windowedEncoder) Kind() Kind {
	if e.generic {
		return Generic
	}
	return Ngram
}

//generic:hotpath
func (e *windowedEncoder) Encode(x []float64, out hdc.Vec) {
	start := telemetry.Now()
	checkEncodeArgs(e.cfg.Features, e.cfg.D, x, out)
	e.acc.Reset()
	n := e.cfg.N
	bins := e.bins
	for m, v := range x {
		bins[m] = e.quant.Quantize(v, e.cfg.Lo, e.cfg.Hi)
	}
	for i := 0; i+n <= len(x); i++ {
		e.win.CopyFrom(e.rotLevels[0][bins[i]])
		for j := 1; j < n; j++ {
			hdc.XorAccumulate(e.win, e.rotLevels[j][bins[i+j]])
		}
		if e.useID {
			hdc.XorAccumulate(e.win, e.ids[i])
		}
		e.acc.Add(e.win)
	}
	e.acc.Bipolar(out)
	telemetry.EncodeNS.ObserveSince(start)
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
