package dataset

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"

	"github.com/edge-hdc/generic/internal/rng"
)

func TestAllBenchmarksValid(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			ds := MustLoad(name, 1)
			if err := ds.Validate(); err != nil {
				t.Fatal(err)
			}
			if ds.Name != name {
				t.Fatalf("Name = %q, want %q", ds.Name, name)
			}
		})
	}
}

func TestLoadUnknown(t *testing.T) {
	if _, err := Load("NOPE", 1); err == nil {
		t.Fatal("Load of unknown benchmark did not error")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := MustLoad("EEG", 7)
	b := MustLoad("EEG", 7)
	if len(a.TrainX) != len(b.TrainX) {
		t.Fatal("sizes differ across identical seeds")
	}
	for i := range a.TrainX {
		if a.TrainY[i] != b.TrainY[i] {
			t.Fatal("labels differ across identical seeds")
		}
		for j := range a.TrainX[i] {
			if a.TrainX[i][j] != b.TrainX[i][j] {
				t.Fatal("features differ across identical seeds")
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := MustLoad("CARDIO", 1)
	b := MustLoad("CARDIO", 2)
	same := true
	for i := range a.TrainX[0] {
		if a.TrainX[0][i] != b.TrainX[0][i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical first samples")
	}
}

func TestRangeCoversData(t *testing.T) {
	for _, name := range Names() {
		ds := MustLoad(name, 3)
		below, total := 0, 0
		for _, x := range ds.TrainX {
			for _, v := range x {
				total++
				if v < ds.Lo || v > ds.Hi {
					below++
				}
			}
		}
		// Percentile clipping allows ~1% outside.
		if float64(below)/float64(total) > 0.03 {
			t.Errorf("%s: %.1f%% of train values outside [Lo,Hi]", name, 100*float64(below)/float64(total))
		}
	}
}

// sortedRange is the range computeRange must reproduce: the entries a full
// sort of the training values puts at the 0.5 and 99.5 percentile indices.
func sortedRange(X [][]float64) (lo, hi float64) {
	var all []float64
	for _, x := range X {
		all = append(all, x...)
	}
	if len(all) == 0 {
		return 0, 1
	}
	sort.Float64s(all)
	lo, hi = all[len(all)/200], all[len(all)-1-len(all)/200]
	if hi <= lo {
		hi = lo + 1
	}
	return lo, hi
}

// TestComputeRangeMatchesSort holds every named benchmark's Lo/Hi to the
// sorted percentiles bit for bit.
func TestComputeRangeMatchesSort(t *testing.T) {
	for _, name := range Names() {
		for seed := uint64(1); seed <= 3; seed++ {
			ds := MustLoad(name, seed)
			lo, hi := sortedRange(ds.TrainX)
			if math.Float64bits(ds.Lo) != math.Float64bits(lo) || math.Float64bits(ds.Hi) != math.Float64bits(hi) {
				t.Errorf("%s seed %d: range [%v,%v], sort gives [%v,%v]", name, seed, ds.Lo, ds.Hi, lo, hi)
			}
		}
	}
}

// TestComputeRangeMatchesSortOnSlices runs the same check on slices whose
// lengths straddle the first trimmed value (200), in shapes that stress a
// selection: ties, signed zeros, constant values and columns, sorted and
// reverse-sorted runs. Sort's order does not tell -0 from +0, so ranges are
// compared as numbers. Each slice also checks selectKth's contract at a few
// depths, down to the sort fallback at depth 0.
func TestComputeRangeMatchesSortOnSlices(t *testing.T) {
	r := rng.New(9)
	shapes := []struct {
		name string
		gen  func(i, n int) float64
	}{
		{"normal", func(int, int) float64 { return r.NormFloat64() }},
		{"ties", func(int, int) float64 { return float64(r.Intn(4) - 1) }},
		{"signed zeros", func(int, int) float64 {
			if r.Intn(8) == 0 {
				return r.NormFloat64()
			}
			return math.Copysign(0, r.NormFloat64())
		}},
		{"constant", func(int, int) float64 { return 3.25 }},
		{"constant columns", func(i, _ int) float64 {
			if i%4 < 2 {
				return float64(i%4) - 7
			}
			return r.NormFloat64()
		}},
		{"sorted", func(i, _ int) float64 { return float64(i) + r.Float64()/2 }},
		{"reversed", func(i, n int) float64 { return float64(n-i) + r.Float64()/2 }},
	}
	for _, n := range []int{1, 199, 200, 201, 400, 4096} {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("%s/%d", sh.name, n), func(t *testing.T) {
				vals := make([]float64, n)
				for i := range vals {
					vals[i] = sh.gen(i, n)
				}
				d := &Dataset{}
				for len(vals) > 0 {
					w := min(4, len(vals))
					d.TrainX = append(d.TrainX, vals[:w])
					vals = vals[w:]
				}
				lo, hi := sortedRange(d.TrainX)
				d.computeRange()
				if d.Lo != lo || d.Hi != hi {
					t.Fatalf("range [%v,%v], sort gives [%v,%v]", d.Lo, d.Hi, lo, hi)
				}
				all := slices.Concat(d.TrainX...)
				sorted := slices.Clone(all)
				sort.Float64s(sorted)
				for _, depth := range []int{0, 1, 3, 64} {
					for _, k := range []int{0, n / 200, n / 2, n - 1 - n/200, n - 1} {
						x := slices.Clone(all)
						if got := selectKth(x, k, depth); got != sorted[k] {
							t.Fatalf("depth %d: selectKth(k=%d) = %v, sort gives %v", depth, k, got, sorted[k])
						}
						for i, v := range x {
							if i < k && v > x[k] || i > k && v < x[k] {
								t.Fatalf("depth %d k=%d: x[%d] = %v on the wrong side of %v", depth, k, i, v, x[k])
							}
						}
					}
				}
			})
		}
	}
}

func TestClassBalanceRoughlyUniformWhereExpected(t *testing.T) {
	ds := MustLoad("ISOLET", 1)
	counts := make([]int, ds.Classes)
	for _, y := range ds.TrainY {
		counts[y]++
	}
	want := len(ds.TrainY) / ds.Classes
	for c, n := range counts {
		if n < want/3 {
			t.Errorf("class %d badly under-represented: %d (expected ~%d)", c, n, want)
		}
	}
}

func TestPageSkewedPriors(t *testing.T) {
	ds := MustLoad("PAGE", 1)
	counts := make([]int, ds.Classes)
	for _, y := range ds.TrainY {
		counts[y]++
	}
	if counts[0] <= counts[4] {
		t.Errorf("PAGE should be skewed toward class 0: %v", counts)
	}
}

func TestEEGMotifStructure(t *testing.T) {
	// Seizure samples must have larger amplitude extremes than background:
	// the property that lets quantized-level encodings get partial accuracy.
	ds := MustLoad("EEG", 1)
	maxAbs := func(x []float64) float64 {
		m := 0.0
		for _, v := range x {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
		return m
	}
	var seiz, bg, nSeiz, nBg float64
	for i, x := range ds.TrainX {
		if ds.TrainY[i] == 1 {
			seiz += maxAbs(x)
			nSeiz++
		} else {
			bg += maxAbs(x)
			nBg++
		}
	}
	if seiz/nSeiz <= bg/nBg {
		t.Error("seizure class does not have larger amplitude extremes")
	}
	if ds.UseID {
		t.Error("EEG should disable global id binding")
	}
}

func TestLangZeroMeanPositionStats(t *testing.T) {
	ds := MustLoad("LANG", 1)
	if ds.UseID {
		t.Error("LANG should disable global id binding")
	}
	if ds.Kind != Sequence {
		t.Errorf("LANG kind = %v, want sequence", ds.Kind)
	}
}

func TestNormalize(t *testing.T) {
	X := [][]float64{{1, 10}, {3, 30}, {5, 50}}
	st := FitNormalize(X)
	st.Apply(X)
	for j := 0; j < 2; j++ {
		var mean, varr float64
		for i := range X {
			mean += X[i][j]
		}
		mean /= 3
		for i := range X {
			varr += (X[i][j] - mean) * (X[i][j] - mean)
		}
		varr /= 3
		if math.Abs(mean) > 1e-9 || math.Abs(varr-1) > 1e-9 {
			t.Fatalf("feature %d not standardized: mean=%v var=%v", j, mean, varr)
		}
	}
}

func TestNormalizeConstantFeature(t *testing.T) {
	X := [][]float64{{2, 1}, {2, 2}, {2, 3}}
	st := FitNormalize(X)
	st.Apply(X)
	for i := range X {
		if X[i][0] != 0 {
			t.Fatalf("constant feature not centered to 0: %v", X[i][0])
		}
		if math.IsNaN(X[i][1]) || math.IsInf(X[i][1], 0) {
			t.Fatalf("normalization produced non-finite value")
		}
	}
}

func TestNormalizedDoesNotMutate(t *testing.T) {
	ds := MustLoad("PAGE", 1)
	orig := ds.TrainX[0][0]
	trainX, testX := ds.Normalized()
	if ds.TrainX[0][0] != orig {
		t.Fatal("Normalized mutated the dataset")
	}
	if len(trainX) != len(ds.TrainX) || len(testX) != len(ds.TestX) {
		t.Fatal("Normalized changed split sizes")
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Tabular: "tabular", TimeSeries: "time-series", Motif: "motif",
		Sequence: "sequence", Image: "image", Kind(99): "Kind(99)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestAllClusterSetsValid(t *testing.T) {
	for _, name := range ClusterNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			cs := MustLoadCluster(name, 1)
			if err := cs.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestLoadClusterUnknown(t *testing.T) {
	if _, err := LoadCluster("NOPE", 1); err == nil {
		t.Fatal("LoadCluster of unknown benchmark did not error")
	}
}

func TestClusterSizes(t *testing.T) {
	want := map[string]int{
		"Hepta": 212, "Tetra": 400, "TwoDiamonds": 800, "WingNut": 1016, "Iris": 150,
	}
	for name, n := range want {
		cs := MustLoadCluster(name, 1)
		if len(cs.X) != n {
			t.Errorf("%s: %d points, want %d", name, len(cs.X), n)
		}
	}
}

func TestHeptaWellSeparated(t *testing.T) {
	cs := MustLoadCluster("Hepta", 1)
	// Within-cluster spread must be far smaller than between-center
	// distance (3.0): compute mean distance to own center.
	centers := make([][]float64, cs.K)
	counts := make([]int, cs.K)
	for i := range centers {
		centers[i] = make([]float64, cs.Features)
	}
	for i, x := range cs.X {
		k := cs.Labels[i]
		counts[k]++
		for j, v := range x {
			centers[k][j] += v
		}
	}
	for k := range centers {
		for j := range centers[k] {
			centers[k][j] /= float64(counts[k])
		}
	}
	var within float64
	for i, x := range cs.X {
		c := centers[cs.Labels[i]]
		var d2 float64
		for j := range x {
			d2 += (x[j] - c[j]) * (x[j] - c[j])
		}
		within += math.Sqrt(d2)
	}
	within /= float64(len(cs.X))
	if within > 1.5 {
		t.Errorf("Hepta within-cluster spread %v too large for separation 3", within)
	}
}

func TestTwoDiamondsGeometry(t *testing.T) {
	cs := MustLoadCluster("TwoDiamonds", 1)
	for i, x := range cs.X {
		cx := -1.02
		if cs.Labels[i] == 1 {
			cx = 1.02
		}
		if math.Abs(x[0]-cx)+math.Abs(x[1]) > 1+1e-9 {
			t.Fatalf("point %d outside its diamond: %v", i, x)
		}
	}
}

func TestClusterDeterminism(t *testing.T) {
	a := MustLoadCluster("WingNut", 5)
	b := MustLoadCluster("WingNut", 5)
	for i := range a.X {
		for j := range a.X[i] {
			if a.X[i][j] != b.X[i][j] {
				t.Fatal("cluster generation not deterministic")
			}
		}
	}
}

// hashDataset is an FNV-64a hash of every value, label and range bound of
// ds, in split order.
func hashDataset(ds *Dataset) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, rows := range [][][]float64{ds.TrainX, ds.TestX} {
		put(uint64(len(rows)))
		for _, x := range rows {
			put(uint64(len(x)))
			for _, v := range x {
				put(math.Float64bits(v))
			}
		}
	}
	for _, ys := range [][]int{ds.TrainY, ds.TestY} {
		put(uint64(len(ys)))
		for _, y := range ys {
			put(uint64(y))
		}
	}
	put(math.Float64bits(ds.Lo))
	put(math.Float64bits(ds.Hi))
	return h.Sum64()
}

// serialIsolet is genIsolet's rows as one NormFloat64 call per value, row
// by row: the reference its two-phase generation must equal.
func serialIsolet(seed uint64) *Dataset {
	r := rng.New(seed ^ hashName("ISOLET"))
	const segLen, segsPerInput, dictSize, nc, n = 16, 8, 6, 26, 2080
	const length = segLen * segsPerInput
	d := &Dataset{Name: "ISOLET", Kind: Tabular, Features: length, Classes: nc, UseID: true}
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
	arrangement := make([][]int, nc)
	for c := range arrangement {
		arr := make([]int, segsPerInput)
		for k := range arr {
			arr[k] = r.Intn(dictSize)
		}
		arrangement[c] = arr
	}
	X := make([][]float64, n)
	Y := make([]int, n)
	for i := 0; i < n; i++ {
		c := r.Intn(nc)
		x := make([]float64, length)
		for k, s := range arrangement[c] {
			for j, v := range dict[s] {
				x[k*segLen+j] = v + 0.3*r.NormFloat64()
			}
		}
		X[i], Y[i] = x, c
	}
	split(r, X, Y, 0.25, d)
	d.computeRange()
	return d
}

// TestLoadMatchesSerialReference pins every benchmark's values, seeds 1-3,
// to hashes of the serial one-NormFloat64-per-value generators, at
// GOMAXPROCS 1, 2 and 4: generation on the workers must not change one bit.
// ISOLET is also checked against serialIsolet directly.
func TestLoadMatchesSerialReference(t *testing.T) {
	want := map[string][3]uint64{
		"CARDIO": {0x3db106becd23b3aa, 0x7b2509b734127c6a, 0x07698596f2e4e759},
		"DNA":    {0xb9f2a0dafc8684b3, 0xc41e306333db5ec0, 0xc34ec50f9f59d2fd},
		"EEG":    {0xeea9e89db33a97e4, 0x471e1118c4b57536, 0xa5b3d59a713cff7a},
		"EMG":    {0xfc8ba399e283eccd, 0xa8d68edd16ca7d2f, 0xf45f21adf8696615},
		"FACE":   {0x5deb676246961f29, 0xbc199f726152eb71, 0x37f429a395f87116},
		"ISOLET": {0x676607ed509eb711, 0x18e3dd6cc1ed830d, 0x6b5e4c3fedc6cbe7},
		"LANG":   {0xb21f4ad7a2b1ff72, 0x5683d39ce2b69ac1, 0x553cddc52c1750d6},
		"MNIST":  {0x5dfc58af895c4dfc, 0x5ff05ee608ac5dba, 0x6cd5fb086935cd1c},
		"PAGE":   {0xefa8399415b2305e, 0x5fa23bcf42d6333a, 0x410e2f7c76eae5e8},
		"PAMAP2": {0xa82fa6422de9a909, 0x4886dc0034c7c19c, 0x48c06d8a1589cdb3},
		"UCIHAR": {0x722034ba83e10694, 0x37843b7d7bb78fb0, 0x7c80bc795fea3495},
	}
	for seed := uint64(1); seed <= 3; seed++ {
		if got, w := hashDataset(serialIsolet(seed)), want["ISOLET"][seed-1]; got != w {
			t.Fatalf("serialIsolet seed %d hashes %#x, want %#x", seed, got, w)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, name := range Names() {
			for seed := uint64(1); seed <= 3; seed++ {
				ds, err := Load(name, seed)
				if err != nil {
					t.Fatal(err)
				}
				if got, w := hashDataset(ds), want[name][seed-1]; got != w {
					t.Errorf("GOMAXPROCS=%d %s seed %d hashes %#x, want %#x", procs, name, seed, got, w)
				}
			}
		}
	}
}
