package encoding

import (
	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/rng"
)

// This file exposes encoder hypervector material to the fault layer
// (internal/faults). The key property it operationalizes is the paper's:
// level and id memories are pseudorandom-from-seed, so unlike class memory
// they need no active protection — any corruption is perfectly repairable by
// regeneration (Regenerate), which replays the exact constructor RNG
// sequence from Config().Seed.
//
// Material (level table, id generator, rotated levels, materialized ids) is
// immutable once built and shared between an encoder and its CloneMaterial
// copies. Every writer installs fresh material instead of writing into the
// shared one: Regenerate and RebuildDerived build new slices, and
// LevelRows/IDSeed copy the memory they hand out for corruption.

// MaterialCloner is implemented by encoders that can clone their *current*
// hypervector material bit-exactly — including any injected corruption —
// rather than regenerating pristine material from the config seed. Pools
// prefer it so that batch encoding sees the same (possibly faulted) memory
// state as the primary encoder.
type MaterialCloner interface {
	// CloneMaterial returns an independent encoder with its own scratch that
	// shares the receiver's current material. The share is safe because
	// material is never written in place (see Faultable): a later write on
	// either encoder replaces that encoder's material and leaves the other's
	// untouched. Cloning only reads the receiver, so it may run concurrently
	// with encodes on it, but not with its Faultable writers.
	CloneMaterial() Encoder
}

// Faultable is implemented by level-based encoders whose Fig. 4 memories
// (level memory, id seed register) can be corrupted by the fault layer and
// repaired by regeneration.
type Faultable interface {
	Encoder
	MaterialCloner
	// LevelRows gives the encoder a private copy of its level memory and
	// returns that copy's rows ℓ(0)…ℓ(bins−1) for in-place mutation, which
	// models level-memory errors; call RebuildDerived afterwards.
	LevelRows() []*hdc.BinVec
	// IDSeed gives the encoder a private copy of its id seed register and
	// returns it for in-place mutation, or returns nil if the encoding does
	// not bind ids. Mutating its bits models id-memory errors; call
	// RebuildDerived afterwards.
	IDSeed() *hdc.BinVec
	// RebuildDerived recomputes material derived from the level rows and id
	// seed (rotated levels, materialized ids) into fresh slices, so Encode
	// observes the mutations.
	RebuildDerived()
	// Regenerate rebuilds all hypervector material from Config().Seed,
	// discarding any corruption — the self-heal path.
	Regenerate()
}

// --- levelIDEncoder ---------------------------------------------------------

func (e *levelIDEncoder) LevelRows() []*hdc.BinVec {
	e.levels = e.levels.Clone()
	return e.levels.Rows()
}

func (e *levelIDEncoder) IDSeed() *hdc.BinVec {
	e.idGen = e.idGen.Clone()
	return e.idGen.Seed()
}

func (e *levelIDEncoder) RebuildDerived() {
	e.ids = materializeIDs(e.idGen, e.cfg.Features, e.cfg.D)
}

func (e *levelIDEncoder) Regenerate() {
	r := rng.New(e.cfg.Seed)
	e.levels = hdc.NewLevelTable(e.cfg.D, e.cfg.Bins, r.Split())
	e.idGen = hdc.NewIDGenerator(e.cfg.D, r.Split())
	e.RebuildDerived()
}

func (e *levelIDEncoder) CloneMaterial() Encoder {
	return &levelIDEncoder{
		cfg:    e.cfg,
		levels: e.levels,
		idGen:  e.idGen,
		ids:    e.ids,
		bound:  hdc.NewBinVec(e.cfg.D),
		acc:    hdc.NewAcc(e.cfg.D),
	}
}

// materializeIDs builds ids ρ(0)(seed) … ρ(n−1)(seed) into fresh vectors.
func materializeIDs(g *hdc.IDGenerator, n, d int) []*hdc.BinVec {
	ids := make([]*hdc.BinVec, n)
	for i := range ids {
		ids[i] = hdc.NewBinVec(d)
		g.ID(i, ids[i])
	}
	return ids
}

// --- permuteEncoder ---------------------------------------------------------

func (e *permuteEncoder) LevelRows() []*hdc.BinVec {
	e.levels = e.levels.Clone()
	return e.levels.Rows()
}

func (e *permuteEncoder) IDSeed() *hdc.BinVec { return nil }
func (e *permuteEncoder) RebuildDerived()     {} // levels are used directly

func (e *permuteEncoder) Regenerate() {
	r := rng.New(e.cfg.Seed)
	e.levels = hdc.NewLevelTable(e.cfg.D, e.cfg.Bins, r.Split())
}

func (e *permuteEncoder) CloneMaterial() Encoder {
	return &permuteEncoder{
		cfg:    e.cfg,
		levels: e.levels,
		rot:    hdc.NewBinVec(e.cfg.D),
		acc:    hdc.NewAcc(e.cfg.D),
	}
}

// --- windowedEncoder --------------------------------------------------------

func (e *windowedEncoder) LevelRows() []*hdc.BinVec {
	e.quant = e.quant.Clone()
	return e.quant.Rows()
}

func (e *windowedEncoder) IDSeed() *hdc.BinVec {
	if e.idGen == nil {
		return nil
	}
	e.idGen = e.idGen.Clone()
	return e.idGen.Seed()
}

func (e *windowedEncoder) RebuildDerived() {
	rot := make([][]*hdc.BinVec, e.cfg.N)
	for j := range rot {
		rot[j] = make([]*hdc.BinVec, e.cfg.Bins)
		for b := range rot[j] {
			rot[j][b] = hdc.Rotate(e.quant.Level(b), j)
		}
	}
	e.rotLevels = rot
	if e.useID {
		e.ids = materializeIDs(e.idGen, e.cfg.Features-e.cfg.N+1, e.cfg.D)
	}
}

func (e *windowedEncoder) Regenerate() {
	r := rng.New(e.cfg.Seed)
	e.quant = hdc.NewLevelTable(e.cfg.D, e.cfg.Bins, r.Split())
	if e.useID {
		e.idGen = hdc.NewIDGenerator(e.cfg.D, r.Split())
	}
	e.RebuildDerived()
}

func (e *windowedEncoder) CloneMaterial() Encoder {
	c := &windowedEncoder{
		cfg:       e.cfg,
		generic:   e.generic,
		useID:     e.useID,
		rotLevels: e.rotLevels,
		idGen:     e.idGen,
		ids:       e.ids,
		quant:     e.quant,
	}
	c.initScratch()
	return c
}

// --- rpEncoder --------------------------------------------------------------

// CloneMaterial shares the projection rows, which are immutable after
// construction (RP has no Fig. 4 memory and is not Faultable), and gives the
// clone its own accumulator scratch so concurrent encodes never conflict.
func (e *rpEncoder) CloneMaterial() Encoder {
	return &rpEncoder{cfg: e.cfg, d: e.d, rows: e.rows, acc: make([]float64, e.d)}
}
