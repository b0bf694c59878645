package dataset

import (
	"math"
	"sync"

	"github.com/edge-hdc/generic/internal/parallel"
	"github.com/edge-hdc/generic/internal/rng"
)

// This file holds the per-benchmark generators. Each one documents the
// structural property of the real dataset it stands in for and how the
// synthetic construction preserves it (see package comment and DESIGN.md §2).

// genCardio stands in for UCI Cardiotocography: 21 tabular features, 3
// fetal-state classes. Real CTG labels follow clinical threshold rules, so
// the label here is produced by a random depth-3 axis-aligned decision tree
// (which is why random forests dominate this benchmark in Table 1), with
// Gaussian feature noise on top.
func genCardio(r *rng.Rand) *Dataset {
	const nf, nc, n = 21, 3, 1200
	d := &Dataset{Kind: Tabular, Features: nf, Classes: nc, UseID: true}
	// Random threshold tree over 3 feature axes → 8 leaves → classes.
	axes := [3]int{r.Intn(nf), r.Intn(nf), r.Intn(nf)}
	thr := [3]float64{0.35 + 0.3*r.Float64(), 0.35 + 0.3*r.Float64(), 0.35 + 0.3*r.Float64()}
	leafClass := make([]int, 8)
	for i := range leafClass {
		leafClass[i] = r.Intn(nc)
	}
	// Ensure every class owns at least one leaf.
	leafClass[0], leafClass[1], leafClass[2] = 0, 1, 2
	X := make([][]float64, n)
	Y := make([]int, n)
	for i := 0; i < n; i++ {
		x := make([]float64, nf)
		for j := range x {
			x[j] = r.Float64()
		}
		leaf := 0
		for b, a := range axes {
			if x[a] > thr[b] {
				leaf |= 1 << uint(b)
			}
		}
		// Moderate label noise keeps accuracies below 100%.
		y := leafClass[leaf]
		if r.Float64() < 0.04 {
			y = r.Intn(nc)
		}
		X[i], Y[i] = x, y
	}
	split(r, X, Y, 0.3, d)
	return d
}

// genDNA stands in for the splice-junction DNA benchmark: a categorical
// sequence with a class-defining motif at a *fixed* (center) position.
// Because the discriminative pattern is both local and positionally
// anchored, every encoding family solves it (~99% across Table 1).
func genDNA(r *rng.Rand) *Dataset {
	const length, nc, n, motifLen = 120, 3, 900, 8
	d := &Dataset{Kind: Sequence, Features: length, Classes: nc, UseID: true}
	// Nucleotides map to 4 evenly spaced levels.
	nt := func(k int) float64 { return float64(k) / 3 }
	motifs := make([][]int, nc)
	for c := range motifs {
		m := make([]int, motifLen)
		for j := range m {
			m[j] = r.Intn(4)
		}
		motifs[c] = m
	}
	center := length/2 - motifLen/2
	X := make([][]float64, n)
	Y := make([]int, n)
	for i := 0; i < n; i++ {
		c := r.Intn(nc)
		x := make([]float64, length)
		for j := range x {
			x[j] = nt(r.Intn(4))
		}
		for j, m := range motifs[c] {
			// 5% per-base mutation noise.
			if r.Float64() < 0.05 {
				m = r.Intn(4)
			}
			x[center+j] = nt(m)
		}
		X[i], Y[i] = x, c
	}
	split(r, X, Y, 0.3, d)
	return d
}

// genEEG stands in for skull-surface EEG seizure detection: a binary
// time-series task where the seizure class contains a short high-frequency
// burst at an unpredictable position. The burst is zero-mean (oscillation),
// so linear random projection sees nothing (RP collapses in Table 1);
// quantized level statistics see the amplitude tails (level-id partial);
// window encodings see the motif itself (ngram/GENERIC best). The GENERIC
// encoding runs id-less here (UseID=false), as the paper prescribes for
// applications without global window order.
func genEEG(r *rng.Rand) *Dataset {
	const length, n, burstLen = 128, 1000, 16
	d := &Dataset{Kind: Motif, Features: length, Classes: 2, UseID: false}
	X := make([][]float64, n)
	Y := make([]int, n)
	for i := 0; i < n; i++ {
		c := r.Intn(2)
		x := make([]float64, length)
		for j := range x {
			x[j] = 0.25 * r.NormFloat64() // background EEG noise
		}
		if c == 1 {
			// Seizure burst: strong alternating spikes, random onset.
			pos := r.Intn(length - burstLen)
			phase := r.Float64() * 2 * math.Pi
			for j := 0; j < burstLen; j++ {
				x[pos+j] += 1.4 * math.Sin(phase+float64(j)*2.1)
			}
		} else if r.Float64() < 0.35 {
			// Background sometimes has weak artifacts, limiting ngram
			// accuracy below 100%.
			pos := r.Intn(length - burstLen)
			phase := r.Float64() * 2 * math.Pi
			for j := 0; j < burstLen; j++ {
				x[pos+j] += 0.7 * math.Sin(phase+float64(j)*2.1)
			}
		}
		X[i], Y[i] = x, c
	}
	split(r, X, Y, 0.3, d)
	return d
}

// genEMG stands in for hand-gesture EMG classification: each gesture has a
// characteristic per-channel activation envelope, but the carrier is a
// zero-mean oscillation — so amplitude (captured by quantized levels at
// each position) separates classes while first-order linear statistics
// (random projection) do not. That is exactly the Table 1 split:
// RP ≈ 54%, everything else ≈ 91%.
func genEMG(r *rng.Rand) *Dataset {
	const length, nc, n = 64, 4, 1000
	d := &Dataset{Kind: TimeSeries, Features: length, Classes: nc, UseID: true}
	// Per-class smooth envelope templates in [0.2, 1].
	envs := make([][]float64, nc)
	for c := range envs {
		env := make([]float64, length)
		// Sum of two random-center Gaussian bumps.
		for b := 0; b < 2; b++ {
			center := float64(r.Intn(length))
			width := 6 + 6*r.Float64()
			amp := 0.5 + 0.5*r.Float64()
			for j := range env {
				dj := float64(j) - center
				env[j] += amp * math.Exp(-dj*dj/(2*width*width))
			}
		}
		envs[c] = env
	}
	X := make([][]float64, n)
	Y := make([]int, n)
	for i := 0; i < n; i++ {
		c := r.Intn(nc)
		x := make([]float64, length)
		phase := r.Float64() * 2 * math.Pi
		for j := range x {
			carrier := math.Sin(phase + float64(j)*2.9)
			x[j] = envs[c][j]*carrier + 0.12*r.NormFloat64()
		}
		X[i], Y[i] = x, c
	}
	split(r, X, Y, 0.3, d)
	return d
}

// genFace stands in for binary face detection on small grayscale patches.
// Faces are a fixed arrangement of intensity blobs (eyes, mouth); non-faces
// contain the *same* blobs at scrambled positions. Local windows therefore
// look alike across classes — ngram drops to ~73% in Table 1 — while any
// positional encoding separates the classes easily.
func genFace(r *rng.Rand) *Dataset {
	const side, n = 16, 1000
	d := &Dataset{Kind: Image, Features: side * side, Classes: 2, UseID: true}
	type blob struct{ cx, cy, w, amp float64 }
	faceBlobs := []blob{
		{4.5, 5, 1.6, 1},  // left eye
		{11.5, 5, 1.6, 1}, // right eye
		{8, 11, 2.2, 0.8}, // mouth
		{8, 8, 1.2, 0.5},  // nose
	}
	render := func(blobs []blob, x []float64, r *rng.Rand) {
		for i := range x {
			x[i] = 0.15 * r.NormFloat64()
		}
		for _, b := range blobs {
			for yy := 0; yy < side; yy++ {
				for xx := 0; xx < side; xx++ {
					dx, dy := float64(xx)-b.cx, float64(yy)-b.cy
					x[yy*side+xx] += b.amp * math.Exp(-(dx*dx+dy*dy)/(2*b.w*b.w))
				}
			}
		}
	}
	X := make([][]float64, n)
	Y := make([]int, n)
	for i := 0; i < n; i++ {
		c := r.Intn(2)
		x := make([]float64, side*side)
		if c == 1 {
			// Face: canonical arrangement with ±1 pixel jitter.
			jb := make([]blob, len(faceBlobs))
			copy(jb, faceBlobs)
			for k := range jb {
				jb[k].cx += float64(r.Intn(3) - 1)
				jb[k].cy += float64(r.Intn(3) - 1)
			}
			render(jb, x, r)
		} else {
			// Non-face: same blob inventory, scrambled positions.
			jb := make([]blob, len(faceBlobs))
			copy(jb, faceBlobs)
			for k := range jb {
				jb[k].cx = 2 + 12*r.Float64()
				jb[k].cy = 2 + 12*r.Float64()
			}
			render(jb, x, r)
		}
		X[i], Y[i] = x, c
	}
	split(r, X, Y, 0.3, d)
	return d
}

// genIsolet stands in for ISOLET spoken-letter recognition: 26 classes of
// spectral-feature curves. Every letter's curve is assembled from the same
// small dictionary of smooth spectral segments — letters differ in the
// global *arrangement* of segments, the way spoken letters share formant
// shapes but sequence them differently. Position-free window statistics
// therefore alias heavily between classes (ngram collapses to ~39% in
// Table 1) while positional encodings exceed 93%.
func genIsolet(r *rng.Rand) *Dataset {
	const segLen, segsPerInput, dictSize, nc, n = 16, 8, 6, 26, 2080
	const length = segLen * segsPerInput
	d := &Dataset{Kind: Tabular, Features: length, Classes: nc, UseID: true}
	// Shared segment dictionary: smooth random curves.
	dict := make([][]float64, dictSize)
	for s := range dict {
		seg := make([]float64, segLen)
		a, b, ph := r.NormFloat64(), r.NormFloat64()*0.5, r.Float64()*2*math.Pi
		for j := range seg {
			t := 2 * math.Pi * float64(j) / segLen
			seg[j] = a*math.Sin(t+ph) + b*math.Cos(2*t+ph)
		}
		dict[s] = seg
	}
	// Class identity = arrangement of dictionary segments.
	arrangement := make([][]int, nc)
	for c := range arrangement {
		arr := make([]int, segsPerInput)
		for k := range arr {
			arr[k] = r.Intn(dictSize)
		}
		arrangement[c] = arr
	}
	// Rows are generated in blocks, in two phases: this goroutine draws each
	// row's class and its polar pairs serially, in the order a row-by-row
	// loop of NormFloat64 calls would, and the workers transform the pairs
	// into the rows while the next block is drawn into the other buffer.
	// Feature k·segLen + j takes pair k·segLen + j, so every value equals
	// that loop's v + 0.3·NormFloat64().
	X := make([][]float64, n)
	Y := make([]int, n)
	const rowPairs = 2 * length
	pairs := [2][]float64{make([]float64, isoletBlock*rowPairs), make([]float64, isoletBlock*rowPairs)}
	transform := func(lo, hi int, p []float64) {
		parallel.ForChunks(0, hi-lo, func(_, a, b int) {
			for i := lo + a; i < lo+b; i++ {
				x := make([]float64, length)
				p := p[(i-lo)*rowPairs : (i-lo+1)*rowPairs]
				for k, s := range arrangement[Y[i]] {
					for j, v := range dict[s] {
						m := k*segLen + j
						x[m] = v + 0.3*rng.Polar(p[2*m], p[2*m+1])
					}
				}
				X[i] = x
			}
		})
	}
	var inFlight sync.WaitGroup // the previous block's transform
	for b, lo := 0, 0; lo < n; b, lo = 1-b, lo+isoletBlock {
		hi := min(lo+isoletBlock, n)
		for i := lo; i < hi; i++ {
			Y[i] = r.Intn(nc)
			r.PolarPairs(pairs[b][(i-lo)*rowPairs : (i-lo+1)*rowPairs])
		}
		inFlight.Wait()
		inFlight.Add(1)
		go func(lo, hi int, p []float64) {
			defer inFlight.Done()
			transform(lo, hi, p)
		}(lo, hi, pairs[b])
	}
	inFlight.Wait()
	split(r, X, Y, 0.25, d)
	return d
}

// isoletBlock is the rows genIsolet draws before the workers transform them:
// each of its two pair buffers is 64 × 128 × 2 floats, 128 KiB.
const isoletBlock = 64

// genLang stands in for language identification from character streams.
// Each language is a first-order Markov chain over a 24-letter alphabet
// with near-identical stationary distributions but disjoint preferred
// transitions: only sub-sequence (n-gram) statistics identify the language.
// ngram and GENERIC reach ~100% in Table 1; positional encodings see mostly
// the (shared) unigram statistics; linear RP is near chance. Global window
// order is meaningless, so GENERIC runs id-less.
func genLang(r *rng.Rand) *Dataset {
	const alphabet, length, nc, n = 24, 64, 12, 960
	d := &Dataset{Kind: Sequence, Features: length, Classes: nc, UseID: false}
	// Each language: from letter a, the successor is drawn from a small
	// language-specific subset of size 3 (90%) or uniform (10%).
	succ := make([][][3]int, nc)
	for c := range succ {
		succ[c] = make([][3]int, alphabet)
		for a := 0; a < alphabet; a++ {
			for k := 0; k < 3; k++ {
				succ[c][a][k] = r.Intn(alphabet)
			}
		}
	}
	X := make([][]float64, n)
	Y := make([]int, n)
	for i := 0; i < n; i++ {
		c := r.Intn(nc)
		x := make([]float64, length)
		cur := r.Intn(alphabet)
		for j := 0; j < length; j++ {
			x[j] = float64(cur) / float64(alphabet-1)
			if r.Float64() < 0.9 {
				cur = succ[c][cur][r.Intn(3)]
			} else {
				cur = r.Intn(alphabet)
			}
		}
		X[i], Y[i] = x, c
	}
	split(r, X, Y, 0.3, d)
	return d
}

// genMNIST stands in for MNIST digit recognition on 14×14 images. Digits
// are rendered from seven-segment-style stroke masks with jitter, noise,
// and ±1-pixel translation. Strokes are shared between digits (e.g. 8 ⊃ 0),
// so position-free window statistics confuse classes (ngram ≈ 53% in
// Table 1) while positional encodings reach ~90%.
func genMNIST(r *rng.Rand) *Dataset {
	const side, nc, n = 14, 10, 2000
	d := &Dataset{Kind: Image, Features: side * side, Classes: nc, UseID: true}
	// Seven segments on a 14x14 canvas: A top, B top-right, C bottom-right,
	// D bottom, E bottom-left, F top-left, G middle.
	segs := [10]uint8{
		0b0111111, // 0: ABCDEF
		0b0000110, // 1: BC
		0b1011011, // 2: ABDEG
		0b1001111, // 3: ABCDG
		0b1100110, // 4: BCFG
		0b1101101, // 5: ACDFG
		0b1111101, // 6: ACDEFG
		0b0000111, // 7: ABC
		0b1111111, // 8: all
		0b1101111, // 9: ABCDFG
	}
	drawSeg := func(x []float64, seg int, dx, dy int) {
		hline := func(y, x0, x1 int) {
			for xx := x0; xx <= x1; xx++ {
				px, py := xx+dx, y+dy
				if px >= 0 && px < side && py >= 0 && py < side {
					x[py*side+px] += 1
				}
			}
		}
		vline := func(xcol, y0, y1 int) {
			for yy := y0; yy <= y1; yy++ {
				px, py := xcol+dx, yy+dy
				if px >= 0 && px < side && py >= 0 && py < side {
					x[py*side+px] += 1
				}
			}
		}
		switch seg {
		case 0: // A
			hline(2, 4, 9)
		case 1: // B
			vline(9, 2, 6)
		case 2: // C
			vline(9, 7, 11)
		case 3: // D
			hline(11, 4, 9)
		case 4: // E
			vline(4, 7, 11)
		case 5: // F
			vline(4, 2, 6)
		case 6: // G
			hline(7, 4, 9)
		}
	}
	X := make([][]float64, n)
	Y := make([]int, n)
	for i := 0; i < n; i++ {
		c := r.Intn(nc)
		x := make([]float64, side*side)
		dx, dy := r.Intn(3)-1, r.Intn(3)-1
		for s := 0; s < 7; s++ {
			if segs[c]>>uint(s)&1 == 1 {
				drawSeg(x, s, dx, dy)
			}
		}
		for j := range x {
			if x[j] > 1 {
				x[j] = 1
			}
			x[j] += 0.18 * r.NormFloat64()
		}
		X[i], Y[i] = x, c
	}
	split(r, X, Y, 0.25, d)
	return d
}

// genPage stands in for UCI page-blocks: 10 tabular layout features, 5
// block classes with skewed priors. Class-conditional Gaussians with a few
// overlapping pairs keep accuracies in the low-to-mid 90s across methods.
func genPage(r *rng.Rand) *Dataset {
	const nf, nc, n = 10, 5, 1100
	d := &Dataset{Kind: Tabular, Features: nf, Classes: nc, UseID: true}
	centers := make([][]float64, nc)
	for c := range centers {
		ctr := make([]float64, nf)
		for j := range ctr {
			ctr[j] = r.Float64()
		}
		centers[c] = ctr
	}
	// Skewed priors like real page-blocks (text blocks dominate).
	priors := []float64{0.55, 0.2, 0.1, 0.08, 0.07}
	X := make([][]float64, n)
	Y := make([]int, n)
	for i := 0; i < n; i++ {
		u := r.Float64()
		c := 0
		for acc := 0.0; c < nc-1; c++ {
			acc += priors[c]
			if u < acc {
				break
			}
		}
		x := make([]float64, nf)
		for j := range x {
			x[j] = centers[c][j] + 0.13*r.NormFloat64()
		}
		X[i], Y[i] = x, c
	}
	split(r, X, Y, 0.3, d)
	return d
}

// genPAMAP2 stands in for PAMAP2 physical-activity recognition from
// body-worn motion sensors: three 32-sample channels per window, each a
// class-specific periodic pattern plus posture offset. Per-channel DC
// offsets give linear methods partial traction (RP ≈ 83% in Table 1);
// local windows alone confuse activities that share limb frequencies
// (ngram ≈ 61%); positional encodings resolve them (~94%).
func genPAMAP2(r *rng.Rand) *Dataset {
	const chans, chanLen, nc, n = 3, 32, 8, 1600
	length := chans * chanLen
	d := &Dataset{Kind: TimeSeries, Features: length, Classes: nc, UseID: true}
	type chanSpec struct{ freq, amp, offset, phaseJit float64 }
	spec := make([][]chanSpec, nc)
	// A small shared pool of limb frequencies creates cross-class window
	// aliasing for position-free encodings.
	freqs := []float64{1.1, 1.7, 2.3, 2.9}
	for c := range spec {
		spec[c] = make([]chanSpec, chans)
		for ch := range spec[c] {
			spec[c][ch] = chanSpec{
				freq:     freqs[r.Intn(len(freqs))],
				amp:      0.25 + 0.5*r.Float64(),
				offset:   0.6 * (r.Float64() - 0.5),
				phaseJit: 1,
			}
		}
	}
	X := make([][]float64, n)
	Y := make([]int, n)
	for i := 0; i < n; i++ {
		c := r.Intn(nc)
		x := make([]float64, length)
		for ch := 0; ch < chans; ch++ {
			s := spec[c][ch]
			phase := r.Float64() * 2 * math.Pi * s.phaseJit
			for j := 0; j < chanLen; j++ {
				x[ch*chanLen+j] = s.offset + s.amp*math.Sin(phase+s.freq*float64(j)) +
					0.1*r.NormFloat64()
			}
		}
		X[i], Y[i] = x, c
	}
	split(r, X, Y, 0.3, d)
	return d
}

// genUCIHAR stands in for UCI HAR smartphone activity recognition, whose
// public form is a vector of hand-crafted statistics. The synthetic version
// is a 128-feature tabular task: class centroids over correlated feature
// groups, where group correlations make short windows ambiguous (ngram ≈
// 65% in Table 1) but global patterns cleanly separable (~94%).
func genUCIHAR(r *rng.Rand) *Dataset {
	const nf, nc, n = 128, 6, 1200
	d := &Dataset{Kind: Tabular, Features: nf, Classes: nc, UseID: true}
	// Feature groups of 8 share a latent factor; class controls the factor
	// means. A small pool of factor levels is reused across classes so
	// individual windows alias between classes.
	const groups = nf / 8
	levels := []float64{-0.8, -0.3, 0.3, 0.8}
	classFactor := make([][]float64, nc)
	for c := range classFactor {
		f := make([]float64, groups)
		for g := range f {
			f[g] = levels[r.Intn(len(levels))]
		}
		classFactor[c] = f
	}
	X := make([][]float64, n)
	Y := make([]int, n)
	for i := 0; i < n; i++ {
		c := r.Intn(nc)
		x := make([]float64, nf)
		for g := 0; g < groups; g++ {
			latent := classFactor[c][g] + 0.2*r.NormFloat64()
			for j := 0; j < 8; j++ {
				x[g*8+j] = latent + 0.25*r.NormFloat64()
			}
		}
		X[i], Y[i] = x, c
	}
	split(r, X, Y, 0.3, d)
	return d
}
