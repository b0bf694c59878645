package hdc

import (
	"encoding/binary"
	"testing"

	"github.com/edge-hdc/generic/internal/rng"
)

// checkQuery fails t unless NewQuery(h[:d], bw).Dot(c) equals dotRef for
// every prefix d in prefixes.
func checkQuery(t testing.TB, name string, h, c Vec, bw int, prefixes []int) {
	t.Helper()
	for _, d := range prefixes {
		if got, want := NewQuery(h[:d], bw).Dot(c), dotRef(h[:d], c); got != want {
			t.Fatalf("%s: bw=%d prefix %d: Query.Dot = %d, reference %d", name, bw, d, got, want)
		}
	}
}

// TestQueryDotMatchesReference drives the 16-bit-lane dot inside its
// precondition (rows of bw ≤ 16 bits, queries within ±(2^15 − 1)) through
// every prefix length up to 80, long rows at every offset mod 8, and random
// values at several query bounds.
func TestQueryDotMatchesReference(t *testing.T) {
	forEachBundlePath(t, func(t *testing.T) {
		r := rng.New(27)
		for _, bound := range []int{1, 126, 127, 1000, 1<<15 - 1} {
			for _, bw := range []int{1, 2, 8, 16} {
				lo, hi := satBounds("test", bw)
				if bw == 1 {
					lo, hi = -1, 1
				}
				lengths := []int{2048, 4096, 8320}
				for n := 0; n <= 80; n++ {
					lengths = append(lengths, n)
				}
				for _, n := range lengths {
					off := r.Intn(8)
					h, c := make(Vec, off+n), make(Vec, off+n)
					for i := range h {
						h[i] = int32(r.Intn(2*bound+1) - bound)
						c[i] = lo + int32(r.Intn(int(hi-lo)+1))
					}
					prefixes := []int{n, n - n%16, n / 2}
					if n <= 80 {
						prefixes = prefixes[:0]
						for d := 0; d <= n; d++ {
							prefixes = append(prefixes, d)
						}
					}
					checkQuery(t, "random", h[off:], c[off:], bw, prefixes)
				}
			}
		}
	})
}

// TestQueryDotExtremes pins the all-same-sign worst cases at the overflow
// bound: every product at its largest magnitude with one sign, over rows
// long enough that each 32-bit lane fills to its block and widens several
// times. Adding the two lane accumulators before widening, or a block one
// larger than the bound allows, overflows a lane here.
func TestQueryDotExtremes(t *testing.T) {
	forEachBundlePath(t, func(t *testing.T) {
		for _, hv := range []int32{126, -126, 127, 1<<15 - 1, -(1<<15 - 1), 1} {
			for _, cv := range []int32{-1 << 15, 1<<15 - 1} {
				abs := int64(hv)
				if abs < 0 {
					abs = -abs
				}
				block := (1<<31 - 1) / (1 << 15 * abs)
				for _, n := range []int{16 * int(block), 16*int(block) + 16, 3*16*int(block) + 48, 2048, 8192} {
					if n > 1<<16 {
						n = 1 << 16
					}
					h, c := make(Vec, n), make(Vec, n)
					for i := range h {
						h[i], c[i] = hv, cv
					}
					checkQuery(t, "extreme", h, c, 16, []int{n, n - 16})
				}
			}
		}
	})
}

// TestQueryKernelSelection checks which inputs take the 16-bit-lane kernel:
// only rows of at most 16 bits with every query element of the kernel's part
// within ±(2^15 − 1). Anything else, and every query off AVX2, takes dot.
func TestQueryKernelSelection(t *testing.T) {
	with := func(i int, x int32) Vec {
		v := make(Vec, 2048)
		v[i] = x
		return v
	}
	tail := make(Vec, 2050)
	tail[2049] = 1 << 20 // past the kernel's part: dotRef takes it
	cases := []struct {
		name  string
		v     Vec
		bw    int
		lanes bool
	}{
		{"in range", with(5, 1<<15-1), 16, true},
		{"narrow rows", with(5, 1<<15-1), 4, true},
		{"wide rows", with(5, 1<<15-1), 17, false},
		{"bw 0", with(5, 1<<15-1), 0, false},
		{"short", with(5, 1<<15-1)[:15], 16, false},
		{"query 2^15", with(100, 1<<15), 16, false},
		{"query -2^15", with(2000, -1<<15), 16, false},
		{"wide tail", tail, 16, true},
	}
	forEachBundlePath(t, func(t *testing.T) {
		for _, tc := range cases {
			q := NewQuery(tc.v, tc.bw)
			if want := tc.lanes && useAVX2; (q.block > 0) != want {
				t.Errorf("%s: 16-bit lanes = %v, want %v", tc.name, q.block > 0, want)
			}
			c := make(Vec, len(tc.v))
			for i := range c {
				c[i] = int32(i%7) - 3
			}
			if got, want := q.Dot(c), dotRef(tc.v, c); got != want {
				t.Errorf("%s: Dot = %d, reference %d", tc.name, got, want)
			}
		}
	})
}

// FuzzQueryDot decodes bytes into a query and a row of int16 elements (four
// bytes per pair), saturates the row to bw bits, takes a sub-slice at offset
// off mod 8 and a prefix d, and checks Query.Dot against dotRef. Queries
// holding −2^15 fall outside the precondition and must take dot.
func FuzzQueryDot(f *testing.F) {
	ext := make([]byte, 4*16*520)
	for i := 0; i < len(ext); i += 4 {
		binary.LittleEndian.PutUint16(ext[i:], 126)
		binary.LittleEndian.PutUint16(ext[i+2:], 0x8000)
	}
	f.Add(ext, uint8(16), uint8(0), uint16(16*520))
	f.Add(make([]byte, 4*40), uint8(3), uint8(3), uint16(33))
	f.Fuzz(func(t *testing.T, data []byte, bw, off uint8, d uint16) {
		b := int(bw)%16 + 1
		n := len(data) / 4
		h, c := make(Vec, n), make(Vec, n)
		for i := range h {
			h[i] = int32(int16(binary.LittleEndian.Uint16(data[4*i:])))
			c[i] = int32(int16(binary.LittleEndian.Uint16(data[4*i+2:])))
		}
		if b > 1 {
			c.Saturate(b)
		} else {
			for i, x := range c {
				c[i] = max(-1, min(1, x))
			}
		}
		o := min(int(off)%8, n)
		h, c = h[o:], c[o:]
		p := int(d) % (len(h) + 1)
		q := NewQuery(h[:p], b)
		if got, want := q.Dot(c), dotRef(h[:p], c); got != want {
			t.Fatalf("bw=%d prefix %d: Query.Dot = %d, reference %d", b, p, got, want)
		}
		for _, x := range h[:p&^15] {
			if x == -1<<15 && q.block > 0 {
				t.Fatalf("query holding -2^15 took the 16-bit-lane kernel")
			}
		}
	})
}

// TestSetRows checks both set widths read the same rows: Widen and AddRow
// on an int8 set equal the int32 rows they were narrowed from, at lengths
// that leave a tail after the vector loop.
func TestSetRows(t *testing.T) {
	forEachBundlePath(t, func(t *testing.T) {
		r := rng.New(6)
		for _, d := range []int{0, 1, 15, 16, 17, 130, 2048} {
			const n = 5
			vecs := make([]Vec, n)
			s8 := NewSet8(n, d)
			for i := range vecs {
				vecs[i] = make(Vec, d)
				for j := range vecs[i] {
					x := int8(r.Intn(256) - 128)
					vecs[i][j] = int32(x)
					s8.Row8(i)[j] = x
				}
			}
			s32 := VecSet(vecs)
			scratch := make(Vec, d)
			sum8, sum32 := make(Vec, d), make(Vec, d)
			for i := range vecs {
				if got := s8.Widen(i, scratch); !equalVec(got, vecs[i]) {
					t.Fatalf("d=%d: Widen(%d) = %v, want %v", d, i, got, vecs[i])
				}
				if got := s32.Widen(i, nil); !equalVec(got, vecs[i]) {
					t.Fatalf("d=%d: VecSet.Widen(%d) differs", d, i)
				}
				s8.AddRow(sum8, i)
				s32.AddRow(sum32, i)
			}
			if !equalVec(sum8, sum32) {
				t.Fatalf("d=%d: AddRow sums differ: %v vs %v", d, sum8, sum32)
			}
		}
	})
}

func equalVec(a, b Vec) bool {
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
