package encoding

import (
	"testing"

	"github.com/edge-hdc/generic/internal/hdc"
)

func faultCfg(useID bool) Config {
	return Config{D: 512, Features: 16, Bins: 16, Lo: 0, Hi: 1, N: 3, UseID: useID, Seed: 21}
}

var faultInput = []float64{0.1, 0.9, 0.4, 0.2, 0.8, 0.3, 0.7, 0.5, 0, 1, 0.6, 0.15, 0.85, 0.45, 0.55, 0.95}

func encodeOne(e Encoder, x []float64) hdc.Vec {
	out := make(hdc.Vec, e.D())
	e.Encode(x, out)
	return out
}

// Every level-based encoder must be Faultable, and RP must not be (it has
// no Fig. 4 level memory).
func TestFaultableCoverage(t *testing.T) {
	for _, kind := range Kinds() {
		e, err := New(kind, faultCfg(true))
		if err != nil {
			t.Fatal(err)
		}
		_, faultable := e.(Faultable)
		if kind == RP && faultable {
			t.Error("RP encoder claims to be Faultable")
		}
		if kind != RP && !faultable {
			t.Errorf("%v encoder is not Faultable", kind)
		}
	}
}

// Regenerate must discard arbitrary in-place corruption and restore material
// bit-identical to a freshly constructed encoder.
func TestRegenerateEqualsFresh(t *testing.T) {
	for _, tc := range []struct {
		kind  Kind
		useID bool
	}{
		{LevelID, false}, {Permute, false}, {Ngram, false},
		{Generic, false}, {Generic, true},
	} {
		name := tc.kind.String()
		if tc.useID {
			name += "+id"
		}
		t.Run(name, func(t *testing.T) {
			e, err := New(tc.kind, faultCfg(tc.useID))
			if err != nil {
				t.Fatal(err)
			}
			f := e.(Faultable)
			want := encodeOne(e, faultInput)

			// Corrupt the level memory and (when present) the id seed.
			for _, row := range f.LevelRows() {
				row.SetBit(3, 1-row.Bit(3))
				row.SetBit(100, 1-row.Bit(100))
			}
			if seed := f.IDSeed(); seed != nil {
				seed.SetBit(7, 1-seed.Bit(7))
			}
			f.RebuildDerived()
			if vecsEqual(encodeOne(e, faultInput), want) {
				t.Fatal("corruption did not change the encoding")
			}

			f.Regenerate()
			if !vecsEqual(encodeOne(e, faultInput), want) {
				t.Fatal("Regenerate is not bit-identical to fresh construction")
			}
		})
	}
}

// CloneMaterial must carry the *current* material — including corruption —
// so pooled encoders see the same faulted memory state as the primary, and
// writes on either side must never reach the other.
func TestCloneMaterialPreservesCorruption(t *testing.T) {
	for _, tc := range []struct {
		kind  Kind
		useID bool
	}{
		{LevelID, false}, {Permute, false}, {Generic, true},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			e, err := New(tc.kind, faultCfg(tc.useID))
			if err != nil {
				t.Fatal(err)
			}
			f := e.(Faultable)
			for _, row := range f.LevelRows() {
				row.SetBit(11, 1-row.Bit(11))
			}
			f.RebuildDerived()
			want := encodeOne(e, faultInput)

			clone := f.CloneMaterial()
			if !vecsEqual(encodeOne(clone, faultInput), want) {
				t.Fatal("clone does not reproduce the corrupted encoding")
			}

			// Material is shared, so corrupting another clone's level memory
			// and id seed must not reach the original, even when the
			// original then rebuilds its derived material from its own rows.
			other := f.CloneMaterial().(Faultable)
			for _, row := range other.LevelRows() {
				row.SetBit(5, 1-row.Bit(5))
			}
			if seed := other.IDSeed(); seed != nil {
				seed.SetBit(9, 1-seed.Bit(9))
			}
			other.RebuildDerived()
			if vecsEqual(encodeOne(other, faultInput), want) {
				t.Fatal("corrupting the other clone changed nothing")
			}
			f.RebuildDerived()
			if !vecsEqual(encodeOne(e, faultInput), want) {
				t.Fatal("corrupting a clone reached the original's material")
			}

			// The clone is independent: healing the original must not heal
			// material the clone owns (shared immutable material is allowed
			// only when mutation happens through Regenerate-replacement, as
			// here — the original re-allocates, the clone keeps its copy).
			f.Regenerate()
			if vecsEqual(encodeOne(e, faultInput), want) {
				t.Fatal("original still corrupted after Regenerate")
			}
			if !vecsEqual(encodeOne(clone, faultInput), want) {
				t.Fatal("Regenerate on the original mutated the clone's material")
			}
		})
	}
}

// RP's CloneMaterial shares immutable rows but must encode identically and
// stay safe for independent scratch use.
func TestRPCloneMaterial(t *testing.T) {
	e, err := New(RP, faultCfg(false))
	if err != nil {
		t.Fatal(err)
	}
	clone := e.CloneMaterial()
	if !vecsEqual(encodeOne(clone, faultInput), encodeOne(e, faultInput)) {
		t.Fatal("RP clone encodes differently")
	}
}
