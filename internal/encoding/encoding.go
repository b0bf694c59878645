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
// into an hdc.BinVec (EncodeBin), the query side of the binary inference
// engine. A level-based encoder stages its bundle once in an hdc.Acc and
// reads it out either way, so EncodeBin(x) is PackSigns(Encode(x)) by
// construction; the equivalence tests lock it bit-identically.
package encoding

import (
	"fmt"
	"math"
	"sync/atomic"

	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/parallel"
	"github.com/edge-hdc/generic/internal/rng"
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

// Encoder maps feature vectors into integer hypervectors. It is the one
// encoder contract, and only New implements it: an encoder's configuration
// determines its material (the level and id memories regenerate from the
// seed, §4.1), and model files, fault regeneration and clones rebuild or
// share material that only New makes.
type Encoder interface {
	// Encode writes H(x) into out, which must have length D().
	Encode(x []float64, out hdc.Vec)
	// EncodeBin writes sign(H(x)) into out, which must have dimensionality
	// D(). The result is bit-identical to packing the signs of Encode(x).
	EncodeBin(x []float64, out *hdc.BinVec)
	// D returns the dimensionality of produced hypervectors.
	D() int
	// Kind identifies the encoding family.
	Kind() Kind
	// Config returns the (defaulted) configuration the encoder was built
	// with, sufficient to reconstruct an identical encoder.
	Config() Config
	// CloneMaterial returns an independent encoder with its own scratch that
	// shares the receiver's current material, including any injected
	// corruption. The share is safe because material is never written in
	// place (see Faultable): a later write on either encoder replaces that
	// encoder's material and leaves the other's untouched. Cloning only
	// reads the receiver, so it may run concurrently with encodes on it, but
	// not with its Faultable writers.
	CloneMaterial() Encoder
	// bound returns the largest magnitude an element of Encode's output can
	// take: the rows a level-based encoder bundles, 1 for RP.
	bound() int
	// encode8 writes Encode(x) into out as int8; bound() must be at most 127.
	encode8(x []float64, out []int8)
}

// BinaryEncoder is Encoder.
//
// Deprecated: every Encoder has EncodeBin.
type BinaryEncoder = Encoder

// AsBinary returns e, which always has a binarized query path.
//
// Deprecated: call e.EncodeBin.
func AsBinary(e Encoder) (BinaryEncoder, bool) { return e, true }

// maxFootprint caps the bytes of material and scratch one encoder may hold,
// so a configuration read from a model file cannot ask for an unbounded
// allocation. The widest encoder the repository builds, RP over 256
// features at D = 4096, holds 8 MiB; the level-based ones stay under 1 MiB.
const maxFootprint = 64 << 20

// footprint estimates the bytes that building an encoder of cfg and its
// first encodes allocate: RP's Features projection rows of D float64s and
// its accumulator; for the level-based kinds, every packed vector (level
// table, rotated levels, ids and accumulator staging rows, each with its
// header), the ladder's D-entry permutation and the windowed encoder's
// per-feature bins scratch. n and useID are the windowed encoder's window
// length and id binding. It counts in float64 so no configuration
// overflows it.
func footprint(kind Kind, cfg Config, n int, useID bool) float64 {
	d, f := float64(cfg.D), float64(cfg.Features)
	if kind == RP {
		return f*(d*8+24) + d*8
	}
	vec := d/8 + 48 // words, BinVec header and the pointer to it
	levels := float64(cfg.Bins)
	if kind == Permute {
		return (levels+f)*vec + d*8 // levels, staging, permutation
	}
	windows := f - float64(n) + 1
	vecs := levels*float64(1+n) + windows // levels, rotated levels, staging
	if useID {
		vecs += windows
	}
	return vecs*vec + d*8 + f*8
}

// New constructs an encoder of the given kind. It returns an error for
// invalid configurations (e.g. fewer features than the window length) and
// for one whose material and scratch would exceed 64 MiB.
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
	// Level-id is the windowed encoding at window length 1 with ids; its
	// Config still reports the caller's N and UseID.
	n, useID := 1, true
	switch kind {
	case RP, LevelID, Permute:
	case Ngram, Generic:
		if cfg.N < 1 {
			return nil, fmt.Errorf("encoding: window length N=%d must be positive", cfg.N)
		}
		if cfg.Features < cfg.N {
			return nil, fmt.Errorf("encoding: %d features < window length %d", cfg.Features, cfg.N)
		}
		// Config reports the actual binding state: plain ngram never binds ids.
		cfg.UseID = kind == Generic && cfg.UseID
		n, useID = cfg.N, cfg.UseID
	default:
		return nil, fmt.Errorf("encoding: unknown kind %v", kind)
	}
	if fp := footprint(kind, cfg, n, useID); fp > maxFootprint {
		return nil, fmt.Errorf("encoding: %v with D=%d and %d features needs %.0f MiB of material, limit %d MiB",
			kind, cfg.D, cfg.Features, fp/(1<<20), maxFootprint>>20)
	}
	switch kind {
	case RP:
		return newRP(cfg), nil
	case Permute:
		return newPermute(cfg), nil
	}
	return newWindowed(cfg, kind, n, useID), nil
}

// MustNew is New that panics on error, for tests and examples.
func MustNew(kind Kind, cfg Config) Encoder {
	e, err := New(kind, cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// EncodeAll encodes every row of X serially with e into a slice of fresh
// hypervectors.
func EncodeAll(e Encoder, X [][]float64) []hdc.Vec { return EncodeAllWorkers(e, X, 1) }

// EncodeAllWorkers encodes every row of X into a slice of fresh
// hypervectors across workers encoders (see encodeRows). The result is
// bit-identical to EncodeAll.
func EncodeAllWorkers(e Encoder, X [][]float64, workers int) []hdc.Vec {
	out := make([]hdc.Vec, len(X))
	encodeRows(e, len(X), workers, func(enc Encoder, i int) {
		out[i] = hdc.NewVec(enc.D())
		enc.Encode(X[i], out[i])
	})
	return out
}

// EncodeSet encodes every row of X across workers encoders (see
// encodeRows) into a set at the width e's bound allows: one int8 slab when
// no element can exceed 127 in magnitude, else EncodeAllWorkers' int32
// rows. Either way row i holds Encode(X[i]).
func EncodeSet(e Encoder, X [][]float64, workers int) hdc.Set {
	if e.bound() > math.MaxInt8 {
		return hdc.VecSet(EncodeAllWorkers(e, X, workers))
	}
	s := hdc.NewSet8(len(X), e.D())
	encodeRows(e, len(X), workers, func(enc Encoder, i int) {
		enc.encode8(X[i], s.Row8(i))
	})
	return s
}

// encodeRows runs encode(enc, i) for every row i in [0, n) across workers
// encoders (workers ≤ 0 means GOMAXPROCS), each a CloneMaterial copy of e, so
// every row sees e's current material whichever clone encodes it. The clones
// take rows in blocks of encodeGrain as they go free, so a worker slowed by
// another tenant of its CPU holds up one block, not half the batch. One
// worker, or a batch too small to amortize the clones, encodes serially
// with e.
func encodeRows(e Encoder, n, workers int, encode func(enc Encoder, i int)) {
	encs := []Encoder{e}
	if w := parallel.Workers(workers); w > 1 && n >= 2*w {
		encs = make([]Encoder, w)
		for i := range encs {
			encs[i] = e.CloneMaterial()
		}
	}
	var next atomic.Int64 // first row of the next unclaimed block
	parallel.ForChunks(len(encs), len(encs), func(worker, _, _ int) {
		enc := encs[worker]
		for {
			lo := int(next.Add(encodeGrain)) - encodeGrain
			if lo >= n {
				return
			}
			for i := lo; i < min(lo+encodeGrain, n); i++ {
				encode(enc, i)
			}
		}
	})
}

// encodeGrain is the block of rows an EncodeAllWorkers clone claims at a
// time: large enough that claiming costs nothing beside the encodes, small
// enough that the workers finish within one block of each other.
const encodeGrain = 16

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
func (e *rpEncoder) bound() int     { return 1 }

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

//generic:hotpath
func (e *rpEncoder) encode8(x []float64, out []int8) {
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
func (e *permuteEncoder) bound() int     { return e.cfg.Features }

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
func (e *permuteEncoder) encode8(x []float64, out []int8) {
	checkEncodeArgs(e.cfg.Features, e.cfg.D, x, out)
	e.bundle(x)
	e.acc.Bipolar8(out)
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
	// Material, shared with CloneMaterial copies.
	// rotLevels[j][bin] = ρ(j)(ℓ(bin)), precomputed for the n offsets.
	rotLevels [][]*hdc.BinVec
	idGen     *hdc.IDGenerator // nil when !useID
	ids       []*hdc.BinVec    // per-window ids (nil when !useID)
	quant     *hdc.LevelTable
	// Scratch, private to each encoder.
	acc  *hdc.Acc
	bins []int // per-feature quantized levels, reused across calls
	// srcs holds every window's rows to bind, window after window: its n
	// rotated levels and, with ids on, its id. Sized by the first encode.
	srcs []*hdc.BinVec
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
func (e *windowedEncoder) bound() int     { return e.cfg.Features - e.n + 1 }

// bundle quantizes x and stages window i as row i of e.acc: the XOR of the
// window's permuted levels and, with ids on, its id. Every window's rows go
// into one table, and one call stages them all.
//
//generic:hotpath
func (e *windowedEncoder) bundle(x []float64) {
	n, bins := e.n, e.bins
	for m, v := range x {
		bins[m] = e.quant.Quantize(v, e.cfg.Lo, e.cfg.Hi)
	}
	k := n
	if e.useID {
		k++
	}
	windows := len(x) - n + 1
	if len(e.srcs) != windows*k {
		//lint:ignore generic/hotalloc sized once: every bundle of an encoder stages the same windows
		e.sizeSrcs(windows * k)
	}
	srcs := e.srcs
	for i := 0; i < windows; i++ {
		row := srcs[i*k : i*k+k]
		for j, lv := range e.rotLevels {
			row[j] = lv[bins[i+j]]
		}
		if e.useID {
			row[n] = e.ids[i]
		}
	}
	e.acc.StageXor(srcs, k)
}

// sizeSrcs sizes the window source table to m rows. It runs on an encoder's
// first bundle, so a clone that never encodes does not pay for it.
func (e *windowedEncoder) sizeSrcs(m int) { e.srcs = make([]*hdc.BinVec, m) }

//generic:hotpath
func (e *windowedEncoder) Encode(x []float64, out hdc.Vec) {
	checkEncodeArgs(e.cfg.Features, e.cfg.D, x, out)
	e.bundle(x)
	e.acc.Bipolar(out)
}

//generic:hotpath
func (e *windowedEncoder) encode8(x []float64, out []int8) {
	checkEncodeArgs(e.cfg.Features, e.cfg.D, x, out)
	e.bundle(x)
	e.acc.Bipolar8(out)
}

//generic:hotpath
func (e *windowedEncoder) EncodeBin(x []float64, out *hdc.BinVec) {
	checkEncodeBinArgs(e.cfg.Features, e.cfg.D, x, out)
	e.bundle(x)
	e.acc.MajorityInto(out)
}

// checkEncodeArgs guards Encode (int32 output) and encode8 (int8 output).
//
//generic:hotpath
func checkEncodeArgs[E int8 | int32](features, d int, x []float64, out []E) {
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
