// Package metrics provides the evaluation metrics used in the paper:
// classification accuracy and normalized mutual information for external
// clustering validation (Table 2).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Accuracy returns the fraction of predictions equal to labels. A length
// mismatch is an error; empty input scores 0.
func Accuracy(pred, labels []int) (float64, error) {
	if len(pred) != len(labels) {
		return 0, fmt.Errorf("metrics: %d predictions vs %d labels", len(pred), len(labels))
	}
	if len(pred) == 0 {
		return 0, nil
	}
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred)), nil
}

// MustAccuracy is Accuracy for call sites where the lengths are correct by
// construction (e.g. predictions just computed from the labeled set); it
// panics on error.
func MustAccuracy(pred, labels []int) float64 {
	a, err := Accuracy(pred, labels)
	if err != nil {
		panic(err)
	}
	return a
}

// NMI returns the normalized mutual information between two labelings,
// using arithmetic-mean normalization: NMI = 2·I(A;B) / (H(A)+H(B)).
// It is symmetric, invariant to label permutation, 1 for identical
// partitions and 0 for independent ones. If both partitions are trivial
// (single cluster), NMI is defined as 1 when they are identical partitions
// and 0 otherwise by the degenerate-entropy convention used here.
func NMI(a, b []int) float64 {
	if len(a) != len(b) {
		panic("metrics: NMI length mismatch")
	}
	n := len(a)
	if n == 0 {
		return 0
	}
	ca := countLabels(a)
	cb := countLabels(b)
	joint := make(map[[2]int]int)
	for i := range a {
		joint[[2]int{a[i], b[i]}]++
	}
	ha := entropy(ca, n)
	hb := entropy(cb, n)
	if ha == 0 && hb == 0 {
		return 1 // both trivial partitions: identical by definition
	}
	if ha == 0 || hb == 0 {
		return 0
	}
	// Accumulate in sorted key order: float addition is not associative, so
	// summing in map order would make the low bits of NMI vary run to run.
	pairs := make([][2]int, 0, len(joint))
	for k := range joint {
		pairs = append(pairs, k)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	var mi float64
	fn := float64(n)
	for _, k := range pairs {
		pij := float64(joint[k]) / fn
		pa := float64(ca[k[0]]) / fn
		pb := float64(cb[k[1]]) / fn
		mi += pij * math.Log(pij/(pa*pb))
	}
	nmi := 2 * mi / (ha + hb)
	// Guard tiny negative round-off.
	if nmi < 0 && nmi > -1e-12 {
		nmi = 0
	}
	return nmi
}

func countLabels(x []int) map[int]int {
	c := make(map[int]int)
	for _, v := range x {
		c[v]++
	}
	return c
}

func entropy(counts map[int]int, n int) float64 {
	// Sorted label order for the same reason as the mutual-information sum:
	// a map-order float fold is nondeterministic in its last bits.
	labels := make([]int, 0, len(counts))
	for k := range counts {
		labels = append(labels, k)
	}
	sort.Ints(labels)
	var h float64
	fn := float64(n)
	for _, l := range labels {
		p := float64(counts[l]) / fn
		h -= p * math.Log(p)
	}
	return h
}

// GeoMean returns the geometric mean of positive values, the aggregation
// the paper uses for cross-benchmark energy and latency comparisons.
// Non-positive values are skipped; an empty input returns 0.
func GeoMean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean and StdDev are the aggregations used in Table 1's summary rows.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)))
}
