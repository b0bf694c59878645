package hdc

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"github.com/edge-hdc/generic/internal/rng"
)

// checkDotOps fails t unless Dot, DotPrefix (at each prefix in prefixes) and
// Norm2 on h and c equal the reference dotRef.
func checkDotOps(t testing.TB, name string, h, c Vec, prefixes []int) {
	t.Helper()
	if got, want := h.Dot(c), dotRef(h, c); got != want {
		t.Fatalf("%s: Dot = %d, reference %d", name, got, want)
	}
	for _, v := range []Vec{h, c} {
		if got, want := v.Norm2(), dotRef(v, v); got != want {
			t.Fatalf("%s: Norm2 = %d, reference %d", name, got, want)
		}
	}
	for _, d := range prefixes {
		if got, want := h.DotPrefix(c, d), dotRef(h[:d], c); got != want {
			t.Fatalf("%s: DotPrefix(%d) = %d, reference %d", name, d, got, want)
		}
	}
}

// TestDotMatchesReference drives every exact dot through lengths that enter
// and leave the 16-element vector loop, on sub-slices at every offset mod 8
// (unaligned loads), with served-range and full int32-range values.
func TestDotMatchesReference(t *testing.T) {
	r := rng.New(18)
	full := func() int32 { return int32(r.Uint32()) }
	ranges := []struct {
		name string
		h, c func() int32
	}{
		// Encoded queries are bounded by the window count, class elements by
		// the 16-bit class memory.
		{"served", func() int32 { return int32(r.Intn(253) - 126) }, func() int32 { return int32(r.Intn(65535) - 32767) }},
		{"int32", full, full},
	}
	lengths := []int{2048, 4096}
	for n := 0; n <= 80; n++ {
		lengths = append(lengths, n)
	}
	for _, vr := range ranges {
		for _, n := range lengths {
			for off := 0; off < 8; off++ {
				hb, cb := make(Vec, off+n), make(Vec, off+n)
				for i := range hb {
					hb[i], cb[i] = vr.h(), vr.c()
				}
				prefixes := []int{0, n / 2, n - n%16, n}
				if n <= 80 {
					prefixes = prefixes[:0]
					for d := 0; d <= n; d++ {
						prefixes = append(prefixes, d)
					}
				}
				checkDotOps(t, vr.name, hb[off:], cb[off:], prefixes)
			}
		}
	}
}

// TestDotWraps pins sums that overflow int64: each lane must add modulo 2^64
// exactly as the scalar int64 += does.
func TestDotWraps(t *testing.T) {
	min16 := make(Vec, 16)
	for i := range min16 {
		min16[i] = math.MinInt32
	}
	mix := make(Vec, 32)
	for i := range mix {
		mix[i] = math.MinInt32
		if i >= 8 && i < 24 {
			mix[i] = math.MaxInt32
		}
	}
	cases := []struct {
		name string
		v    Vec
		want int64
	}{
		{"16 x MinInt32", min16, 0},                       // 16·2^62 ≡ 0
		{"16 x MinInt32, 16 x MaxInt32", mix, 16 - 1<<36}, // 32·2^62 − 2^36 + 16 ≡ 16 − 2^36
	}
	for _, tc := range cases {
		if got := dotRef(tc.v, tc.v); got != tc.want {
			t.Fatalf("%s: reference = %d, want %d", tc.name, got, tc.want)
		}
		checkDotOps(t, tc.name, tc.v, tc.v, []int{len(tc.v)})
	}
}

// FuzzDotPrefix decodes bytes into two int32 vectors (eight bytes per
// element pair), takes a sub-slice at offset off mod 8 and a prefix d, and
// checks every exact dot against the reference.
func FuzzDotPrefix(f *testing.F) {
	wrap := make([]byte, 8*17)
	for i := 0; i < len(wrap); i += 4 {
		binary.LittleEndian.PutUint32(wrap[i:], 1<<31)
	}
	f.Add(wrap, uint8(1), uint16(16))
	f.Add(make([]byte, 8*40), uint8(3), uint16(33))
	f.Fuzz(func(t *testing.T, data []byte, off uint8, d uint16) {
		n := len(data) / 8
		h, c := make(Vec, n), make(Vec, n)
		for i := range h {
			h[i] = int32(binary.LittleEndian.Uint32(data[8*i:]))
			c[i] = int32(binary.LittleEndian.Uint32(data[8*i+4:]))
		}
		o := min(int(off)%8, n)
		h, c = h[o:], c[o:]
		checkDotOps(t, "fuzz", h, c, []int{int(d) % (len(h) + 1)})
	})
}

// TestDotGuards pins the canonical hdc: panic for every length a dot kernel
// must refuse, a negative prefix included.
func TestDotGuards(t *testing.T) {
	a, b := NewVec(32), NewVec(16)
	for name, f := range map[string]func(){
		"Dot":                  func() { a.Dot(b) },
		"DotPrefix/negative":   func() { a.DotPrefix(a, -1) },
		"DotPrefix/past v":     func() { b.DotPrefix(a, 17) },
		"DotPrefix/past other": func() { a.DotPrefix(b, 17) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "hdc:") {
					t.Errorf("%s did not panic with the hdc: prefix (got %q)", name, msg)
				}
			}()
			f()
		}()
	}
}
