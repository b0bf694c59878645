// Package rng provides small, deterministic pseudo-random number generators
// used throughout the GENERIC reproduction.
//
// Every stochastic component in the library (hypervector material, synthetic
// dataset generation, baseline ML initialization, fault injection) draws from
// these generators with an explicit seed, so experiments are reproducible
// bit-for-bit across runs and platforms. The generators are SplitMix64 (for
// seeding) and xoshiro256** (for streams), both from Blackman & Vigna.
package rng

import "math"

// SplitMix64 advances the state z and returns the next 64-bit output.
// It is used to expand a single user seed into independent stream seeds.
func SplitMix64(z *uint64) uint64 {
	*z += 0x9e3779b97f4a7c15
	x := *z
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Rand is a xoshiro256** generator. The zero value is not valid; use New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64, as recommended by
// the xoshiro authors. Any seed, including 0, yields a valid stream.
func New(seed uint64) *Rand {
	var r Rand
	z := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&z)
	}
	// An all-zero state would be a fixed point; SplitMix64 cannot produce
	// four zero outputs in a row, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// Split derives a new, statistically independent generator from r.
// It is used to hand child seeds to sub-components without correlating
// their streams.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// step is the one definition of the xoshiro256** step: it returns the
// output of state (s0, s1, s2, s3) and the state after it. It inlines, so a
// batch draw that holds the state in locals keeps it in registers.
func step(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return out, s0, s1, s2, rotl(s3, 45)
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	out, s0, s1, s2, s3 := step(s[0], s[1], s[2], s[3])
	s[0], s[1], s[2], s[3] = s0, s1, s2, s3
	return out
}

// Uint32 returns the next 32 random bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1, w2 := t&mask32, t>>32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 { return unit(r.Uint64()) }

// unit maps 64 random bits to Float64's [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// NormFloat64 returns a standard normal variate (Marsaglia polar method):
// Polar of one PolarPairs draw.
func (r *Rand) NormFloat64() float64 {
	var p [2]float64
	r.PolarPairs(p[:])
	return Polar(p[0], p[1])
}

// PolarPairs fills dst with len(dst)/2 draws of the polar method's serial
// half, in order: pair i is (u, s) at dst[2i], dst[2i+1], where u and v
// are uniform on (−1, 1), drawn again until s = u² + v² lies in (0, 1).
// Polar(u, s) of pair i is the normal variate the i-th NormFloat64 call
// would have returned, and the generator ends where those calls leave it.
// The draw is branchy and serial; the transform is independent per pair,
// so a caller may run it on other goroutines.
func (r *Rand) PolarPairs(dst []float64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := 0; i+1 < len(dst); i += 2 {
		for {
			var a, b uint64
			a, s0, s1, s2, s3 = step(s0, s1, s2, s3)
			b, s0, s1, s2, s3 = step(s0, s1, s2, s3)
			u := 2*unit(a) - 1
			v := 2*unit(b) - 1
			if s := u*u + v*v; s > 0 && s < 1 {
				dst[i], dst[i+1] = u, s
				break
			}
		}
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// Polar is the polar method's transform of one accepted draw (u, s) of
// PolarPairs: the standard normal variate u·√(−2·ln s / s).
func Polar(u, s float64) float64 { return u * math.Sqrt(-2*math.Log(s)/s) }

// Bool returns a uniform random boolean.
func (r *Rand) Bool() bool { return r.Uint64()&1 == 1 }

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// FillBits fills dst with uniformly random 64-bit words.
func (r *Rand) FillBits(dst []uint64) {
	for i := range dst {
		dst[i] = r.Uint64()
	}
}
