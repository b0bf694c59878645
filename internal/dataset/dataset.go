// Package dataset provides deterministic synthetic versions of the eleven
// classification benchmarks and the clustering benchmarks evaluated in the
// GENERIC paper (DAC'22).
//
// The real datasets (UCI Cardiotocography, splice-junction DNA, skull-EEG
// seizure, EMG gestures, face detection, ISOLET, language identification,
// MNIST, page blocks, PAMAP2, UCI HAR, FCPS, Iris) are replaced by
// generators that reproduce the *structural property* each benchmark
// stresses, because Table 1's ordering of encodings is driven entirely by
// which structure an encoding can capture:
//
//   - global positional structure (images, voice, tabular) — favors
//     positional encodings (level-id, permutation, RP), defeats ngram;
//   - local motifs at unpredictable positions (EEG seizure bursts) —
//     favors window encodings (ngram, GENERIC), defeats global ones;
//   - sequence statistics (language identification) — favors ngram and
//     GENERIC, defeats everything positional;
//   - zero-mean amplitude structure (EMG/EEG oscillations) — defeats
//     linear random projection, which only sees first-order statistics.
//
// All generators take an explicit seed and are reproducible bit-for-bit.
package dataset

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/edge-hdc/generic/internal/encoding"
	"github.com/edge-hdc/generic/internal/rng"
)

// Kind describes the structural family of a benchmark, which downstream
// code uses to pick encoder configuration (e.g. whether the GENERIC encoding
// binds window ids).
type Kind int

const (
	// Tabular feature vectors without meaningful adjacency.
	Tabular Kind = iota
	// TimeSeries signals where both local motifs and global position matter.
	TimeSeries
	// Motif signals classified by a local pattern at an unpredictable
	// position (global position is uninformative).
	Motif
	// Sequence data classified by sub-sequence statistics (n-grams).
	Sequence
	// Image data (flattened), strongly positional.
	Image
)

func (k Kind) String() string {
	switch k {
	case Tabular:
		return "tabular"
	case TimeSeries:
		return "time-series"
	case Motif:
		return "motif"
	case Sequence:
		return "sequence"
	case Image:
		return "image"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Dataset is a labelled classification benchmark split into train and test.
// Feature values are float64; Lo/Hi give the global quantization range used
// by level-hypervector encoders (computed from the training split).
type Dataset struct {
	Name     string
	Kind     Kind
	Features int
	Classes  int

	TrainX [][]float64
	TrainY []int
	TestX  [][]float64
	TestY  []int

	Lo, Hi float64

	// UseID reports whether the GENERIC encoding should bind per-window id
	// hypervectors for this benchmark. The paper sets id = 0 for
	// applications where global window order is uninformative (§3.1).
	UseID bool
}

// EncoderConfig returns the encoder configuration the experiments use for
// ds at dimensionality d: the paper's 64 levels, windows of n = 3 features
// (fewer when ds has fewer), ds's quantization range, and its prescribed id
// setting (UseID, §3.1).
func EncoderConfig(ds *Dataset, d int, seed uint64) encoding.Config {
	return encoding.Config{
		D: d, Features: ds.Features, Bins: 64, Lo: ds.Lo, Hi: ds.Hi,
		N: min(3, ds.Features), UseID: ds.UseID, Seed: seed,
	}
}

// names lists the classification benchmarks in the paper's Table 1 order.
var names = []string{
	"CARDIO", "DNA", "EEG", "EMG", "FACE", "ISOLET",
	"LANG", "MNIST", "PAGE", "PAMAP2", "UCIHAR",
}

// Names returns the classification benchmark names in Table 1 order.
func Names() []string {
	out := make([]string, len(names))
	copy(out, names)
	return out
}

// Load generates the named classification benchmark deterministically from
// seed. It returns an error for unknown names.
func Load(name string, seed uint64) (*Dataset, error) {
	r := rng.New(seed ^ hashName(name))
	var ds *Dataset
	switch name {
	case "CARDIO":
		ds = genCardio(r)
	case "DNA":
		ds = genDNA(r)
	case "EEG":
		ds = genEEG(r)
	case "EMG":
		ds = genEMG(r)
	case "FACE":
		ds = genFace(r)
	case "ISOLET":
		ds = genIsolet(r)
	case "LANG":
		ds = genLang(r)
	case "MNIST":
		ds = genMNIST(r)
	case "PAGE":
		ds = genPage(r)
	case "PAMAP2":
		ds = genPAMAP2(r)
	case "UCIHAR":
		ds = genUCIHAR(r)
	default:
		return nil, fmt.Errorf("dataset: unknown benchmark %q (known: %v)", name, names)
	}
	ds.Name = name
	ds.computeRange()
	return ds, nil
}

// MustLoad is Load that panics on error, for tests and examples.
func MustLoad(name string, seed uint64) *Dataset {
	ds, err := Load(name, seed)
	if err != nil {
		panic(err)
	}
	return ds
}

func hashName(name string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// computeRange sets Lo/Hi from the 0.5 and 99.5 percentiles of the training
// values, so a handful of outliers cannot squash the quantization ladder.
// The percentiles are the entries sort.Float64s would put at those indices,
// found by two selections over one copy of the values instead of a sort.
func (d *Dataset) computeRange() {
	n := 0
	for _, x := range d.TrainX {
		n += len(x)
	}
	if n == 0 {
		d.Lo, d.Hi = 0, 1
		return
	}
	all := make([]float64, 0, n)
	for _, x := range d.TrainX {
		all = append(all, x...)
	}
	k, m := n/200, n-1-n/200
	hi := selectKth(all, m, 2*bits.Len(uint(n)))
	// all[:m+1] now holds the m+1 smallest values, so the k-th smallest
	// overall is the k-th smallest of them.
	lo := selectKth(all[:m+1], k, 2*bits.Len(uint(m+1)))
	if hi <= lo {
		hi = lo + 1
	}
	d.Lo, d.Hi = lo, hi
}

// selectKth reorders x so that x[k] is a value sort.Float64s would put at
// index k, no value of x[:k] sorts after it and none of x[k+1:] before it,
// and returns x[k]. It is Floyd and Rivest's SELECT (CACM 1975, Algorithm
// 489): each round first selects k within a window around it, about n^(2/3)
// values wide, so that x[k] becomes a pivot near the k-th value, then
// partitions the range around that pivot and keeps the side k is on. After
// depth rounds it sorts what is left, so input built to defeat the pivot
// still costs O(n log n).
func selectKth(x []float64, k, depth int) float64 {
	lo, hi := 0, len(x)-1
	for ; lo < hi; depth-- {
		if depth == 0 {
			slices.Sort(x[lo : hi+1])
			break
		}
		if hi-lo > 600 {
			n, i := float64(hi-lo+1), float64(k-lo+1)
			z := math.Log(n)
			s := 0.5 * math.Exp(2*z/3)
			sd := 0.5 * math.Sqrt(z*s*(n-s)/n)
			if i < n/2 {
				sd = -sd
			}
			l := max(lo, int(float64(k)-i*s/n+sd))
			h := min(hi, int(float64(k)+(n-i)*s/n+sd))
			selectKth(x[l:h+1], k-l, depth)
		}
		// Partition x[lo:hi+1] around t. The pivot sits at one end and a
		// value on the other side of it at the other, so neither scan runs
		// off the range.
		t := x[k]
		x[lo], x[k] = x[k], x[lo]
		if cmp.Less(t, x[hi]) {
			x[lo], x[hi] = x[hi], x[lo]
		}
		i, j := lo, hi
		for i < j {
			x[i], x[j] = x[j], x[i]
			for i++; cmp.Less(x[i], t); i++ {
			}
			for j--; cmp.Less(t, x[j]); j-- {
			}
		}
		// Move the pivot to its place j.
		if !cmp.Less(x[lo], t) && !cmp.Less(t, x[lo]) {
			x[lo], x[j] = x[j], x[lo]
		} else {
			j++
			x[j], x[hi] = x[hi], x[j]
		}
		if j <= k {
			lo = j + 1
		}
		if k <= j {
			hi = j - 1
		}
	}
	return x[k]
}

// TrainLen and TestLen report split sizes.
func (d *Dataset) TrainLen() int { return len(d.TrainX) }
func (d *Dataset) TestLen() int  { return len(d.TestX) }

// Validate checks internal consistency; generators are unit-tested with it.
func (d *Dataset) Validate() error {
	if len(d.TrainX) != len(d.TrainY) || len(d.TestX) != len(d.TestY) {
		return fmt.Errorf("dataset %s: X/Y length mismatch", d.Name)
	}
	if len(d.TrainX) == 0 || len(d.TestX) == 0 {
		return fmt.Errorf("dataset %s: empty split", d.Name)
	}
	seen := make([]bool, d.Classes)
	check := func(X [][]float64, Y []int) error {
		for i, x := range X {
			if len(x) != d.Features {
				return fmt.Errorf("dataset %s: sample %d has %d features, want %d", d.Name, i, len(x), d.Features)
			}
			if Y[i] < 0 || Y[i] >= d.Classes {
				return fmt.Errorf("dataset %s: label %d out of range [0,%d)", d.Name, Y[i], d.Classes)
			}
			seen[Y[i]] = true
		}
		return nil
	}
	if err := check(d.TrainX, d.TrainY); err != nil {
		return err
	}
	if err := check(d.TestX, d.TestY); err != nil {
		return err
	}
	for c, ok := range seen {
		if !ok {
			return fmt.Errorf("dataset %s: class %d absent", d.Name, c)
		}
	}
	if !finite(d.Lo) || !finite(d.Hi) || d.Hi <= d.Lo {
		return fmt.Errorf("dataset %s: bad range [%v,%v]", d.Name, d.Lo, d.Hi)
	}
	return nil
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// split shuffles (X, Y) and splits off the last testFrac as the test set.
func split(r *rng.Rand, X [][]float64, Y []int, testFrac float64, d *Dataset) {
	r.Shuffle(len(X), func(i, j int) {
		X[i], X[j] = X[j], X[i]
		Y[i], Y[j] = Y[j], Y[i]
	})
	nTest := int(float64(len(X)) * testFrac)
	if nTest < 1 {
		nTest = 1
	}
	cut := len(X) - nTest
	d.TrainX, d.TrainY = X[:cut], Y[:cut]
	d.TestX, d.TestY = X[cut:], Y[cut:]
}

// NormalizeStats holds per-feature affine normalization parameters computed
// on a training split, for the classical-ML baselines.
type NormalizeStats struct {
	Mean, Scale []float64
}

// FitNormalize computes per-feature mean and inverse standard deviation.
func FitNormalize(X [][]float64) *NormalizeStats {
	if len(X) == 0 {
		return &NormalizeStats{}
	}
	nf := len(X[0])
	mean := make([]float64, nf)
	for _, x := range X {
		for j, v := range x {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(len(X))
	}
	variance := make([]float64, nf)
	for _, x := range X {
		for j, v := range x {
			dv := v - mean[j]
			variance[j] += dv * dv
		}
	}
	scale := make([]float64, nf)
	for j := range scale {
		v := variance[j] / float64(len(X))
		if v < 1e-12 {
			scale[j] = 1
		} else {
			scale[j] = 1 / math.Sqrt(v)
		}
	}
	return &NormalizeStats{Mean: mean, Scale: scale}
}

// Apply standardizes X in place using the fitted statistics.
func (s *NormalizeStats) Apply(X [][]float64) {
	if len(s.Mean) == 0 {
		return
	}
	for _, x := range X {
		for j := range x {
			x[j] = (x[j] - s.Mean[j]) * s.Scale[j]
		}
	}
}

// Normalized returns standardized deep copies of the train and test inputs.
func (d *Dataset) Normalized() (trainX, testX [][]float64) {
	trainX = deepCopy(d.TrainX)
	testX = deepCopy(d.TestX)
	st := FitNormalize(trainX)
	st.Apply(trainX)
	st.Apply(testX)
	return trainX, testX
}

func deepCopy(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, x := range X {
		out[i] = append([]float64(nil), x...)
	}
	return out
}
