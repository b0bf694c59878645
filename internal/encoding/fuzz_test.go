package encoding

import (
	"math"
	"testing"

	"github.com/edge-hdc/generic/internal/hdc"
)

// FuzzGenericEncode drives the level-based encoders — the kind is picked
// from the input — through adversarial configs and inputs. Invalid
// configurations must surface as New errors — never panics — and any valid
// encoder must match refEncode (Encode exactly, EncodeBin as its packed
// signs) and be deterministic two ways: re-encoding with the same encoder
// (scratch-state reuse) and encoding with a fresh encoder rebuilt from
// Config() both reproduce the hypervector bit for bit.
func FuzzGenericEncode(f *testing.F) {
	// Seed corpus: the window edge cases called out in the encoder docs on
	// GENERIC (levelKinds[3]), then the other level kinds across a counting
	// block boundary.
	const generic = uint8(3)

	f.Add(generic, uint64(1), 512, 8, 3, 16, true, []byte{0, 17, 200, 63, 5})   // nominal
	f.Add(generic, uint64(2), 256, 2, 5, 8, true, []byte{1, 2})                 // window n > feature count
	f.Add(generic, uint64(3), 100, 6, 3, 8, false, []byte{9, 9, 9})             // d=100 does not divide into 64-bit words
	f.Add(generic, uint64(4), 256, 0, 3, 8, true, []byte{})                     // zero-feature input
	f.Add(generic, uint64(5), 256, 6, 6, 8, false, []byte{40, 80, 120})         // id disabled, single full-width window
	f.Add(generic, uint64(6), 512, 4, 3, -1, true, []byte{7})                   // negative bin count
	f.Add(generic, uint64(7), 512, 4, -2, 16, true, []byte{7})                  // negative window length
	f.Add(generic, uint64(8), 512, 5, 3, 16, true, []byte{255, 254, 3, 255, 0}) // NaN / +Inf features
	f.Add(uint8(0), uint64(9), 64, 9, 3, 33, true, []byte{1, 128, 250})         // level-id, 9 rows: one block + 1
	f.Add(uint8(1), uint64(10), 128, 20, 4, 8, false, []byte{3, 90, 160})       // ngram, 17 windows
	f.Add(uint8(2), uint64(11), 256, 17, 2, 12, true, []byte{77, 254, 12})      // permute, 17 rows

	f.Fuzz(func(t *testing.T, kindSel uint8, seed uint64, d, features, n, bins int, useID bool, data []byte) {
		// Bound only the success-path allocation size; negative and
		// otherwise-invalid values stay in play so New's validation is
		// exercised.
		if d > 2048 || features > 64 || n > 32 || bins > 1025 {
			t.Skip("config too large for the fuzz harness")
		}
		cfg := Config{D: d, Features: features, Bins: bins, Lo: -4, Hi: 4, N: n, UseID: useID, Seed: seed}
		e, err := New(levelKinds[int(kindSel)%len(levelKinds)], cfg)
		if err != nil {
			return // invalid configs must error, not panic
		}

		x := make([]float64, features)
		for i := range x {
			if len(data) == 0 {
				break
			}
			switch b := data[i%len(data)]; b {
			case 255:
				x[i] = math.NaN()
			case 254:
				x[i] = math.Inf(1)
			default:
				x[i] = (float64(b) - 128) / 16 // spills past [Lo, Hi] to hit the clamp bins
			}
		}

		checkAgainstReference(t, e, x)
		out := hdc.NewVec(e.D())
		e.Encode(x, out)

		again := hdc.NewVec(e.D())
		e.Encode(x, again)
		if !vecsEqual(out, again) {
			t.Fatalf("re-encode with the same encoder diverged (cfg %+v)", e.Config())
		}

		fresh, err := New(e.Kind(), e.Config())
		if err != nil {
			t.Fatalf("Config() of a valid encoder was rejected: %v", err)
		}
		rebuilt := hdc.NewVec(fresh.D())
		fresh.Encode(x, rebuilt)
		if !vecsEqual(out, rebuilt) {
			t.Fatalf("fresh encoder from Config() diverged (cfg %+v)", e.Config())
		}
	})
}

func vecsEqual(a, b hdc.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
