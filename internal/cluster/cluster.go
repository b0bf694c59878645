// Package cluster implements the two clustering algorithms compared in the
// paper's §5.3: HDC clustering in hyperspace (the GENERIC engine's
// unsupervised mode, §2.1/§4.2.3) and classical k-means (the software
// baseline run on Raspberry Pi / CPU).
package cluster

import (
	"fmt"
	"math"

	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/parallel"
	"github.com/edge-hdc/generic/internal/rng"
	"github.com/edge-hdc/generic/internal/telemetry"
)

// HDCResult holds the outcome of HDC clustering.
type HDCResult struct {
	// Assignments[i] is the centroid index of input i under the final model.
	Assignments []int
	// Centroids are the final centroid hypervectors.
	Centroids []hdc.Vec
	// Epochs actually run (equals the requested count; exposed for
	// reporting).
	Epochs int
}

// nearestCentroid returns the index of the centroid most similar to h under
// the modified cosine metric; norm2[c] must be ‖centroids[c]‖². Both the
// per-epoch scan and the final assignment pass rank with this helper.
func nearestCentroid(h hdc.Vec, centroids []hdc.Vec, norm2 []int64) int {
	best, bestScore := 0, -math.MaxFloat64
	for c := range centroids {
		s := hdc.CosineScore(h.Dot(centroids[c]), norm2[c])
		if s > bestScore {
			best, bestScore = c, s
		}
	}
	return best
}

// HDC clusters pre-encoded hypervectors into k groups the way the GENERIC
// accelerator does: the first k encodings seed the centroids; each epoch
// assigns every input to its most-similar centroid (modified cosine) while
// bundling it into a *copy* centroid, and the copies replace the model at
// the end of the epoch (the in-flight model stays frozen, §2.1).
//
// The per-epoch assignment scan and the final assignment pass fan across
// workers workers (<= 0 means GOMAXPROCS, 1 is the serial path). Because the
// in-flight model is frozen within an epoch, workers score against the same
// read-only centroids, bundle into per-worker copy centroids, and the
// partials merge in worker order — integer accumulation commutes, so
// assignments and centroids are bit-identical for every worker count.
func HDC(encoded []hdc.Vec, k, epochs, workers int) *HDCResult {
	if k < 1 || len(encoded) < k {
		panic(fmt.Sprintf("cluster: need at least k=%d inputs, got %d", k, len(encoded)))
	}
	if epochs < 1 {
		epochs = 1
	}
	workers = parallel.Workers(workers)
	d := len(encoded[0])
	centroids := make([]hdc.Vec, k)
	for c := range centroids {
		centroids[c] = encoded[c].Clone()
	}
	norm2 := make([]int64, k)
	refresh := func() {
		for c := range centroids {
			norm2[c] = centroids[c].Norm2()
		}
	}
	refresh()

	type epochPartial struct {
		copies []hdc.Vec
		counts []int
	}
	assign := make([]int, len(encoded))
	for e := 0; e < epochs; e++ {
		epochStart := telemetry.Now()
		partials := make([]epochPartial, workers)
		parallel.ForChunks(workers, len(encoded), func(w, lo, hi int) {
			copies := make([]hdc.Vec, k)
			counts := make([]int, k)
			for c := range copies {
				copies[c] = hdc.NewVec(d)
			}
			for i := lo; i < hi; i++ {
				best := nearestCentroid(encoded[i], centroids, norm2)
				assign[i] = best
				copies[best].AddInto(encoded[i])
				counts[best]++
			}
			partials[w] = epochPartial{copies: copies, counts: counts}
		})
		// Merge worker partials in worker order.
		copies, counts := partials[0].copies, partials[0].counts
		for _, p := range partials[1:] {
			if p.copies == nil { // unused worker (fewer chunks than workers)
				continue
			}
			for c := range copies {
				copies[c].AddInto(p.copies[c])
				counts[c] += p.counts[c]
			}
		}
		for c := range centroids {
			if counts[c] > 0 {
				centroids[c] = copies[c]
			} // empty centroid keeps its previous hypervector
		}
		refresh()
		telemetry.ClusterAssigns.Add(int64(len(encoded)))
		telemetry.ClusterEpochNS.ObserveSince(epochStart)
	}
	// Final assignment pass against the final model.
	parallel.For(workers, len(encoded), func(_, i int) {
		assign[i] = nearestCentroid(encoded[i], centroids, norm2)
	})
	return &HDCResult{Assignments: assign, Centroids: centroids, Epochs: epochs}
}

// KMeansResult holds the outcome of Lloyd's k-means.
type KMeansResult struct {
	Assignments []int
	Centroids   [][]float64
	// Iters is the number of Lloyd iterations executed before convergence
	// or the iteration cap.
	Iters int
	// Inertia is the final sum of squared distances to assigned centroids.
	Inertia float64
}

// KMeans runs Lloyd's algorithm with k-means++ initialization on raw
// feature vectors. It stops when assignments stabilize or after maxIter
// iterations.
func KMeans(X [][]float64, k, maxIter int, seed uint64) *KMeansResult {
	if k < 1 || len(X) < k {
		panic(fmt.Sprintf("cluster: need at least k=%d inputs, got %d", k, len(X)))
	}
	if maxIter < 1 {
		maxIter = 100
	}
	r := rng.New(seed)
	nf := len(X[0])
	centroids := kppInit(X, k, r)

	assign := make([]int, len(X))
	for i := range assign {
		assign[i] = -1
	}
	iters := 0
	for ; iters < maxIter; iters++ {
		changed := false
		for i, x := range X {
			best, bestD := 0, math.MaxFloat64
			for c := range centroids {
				d := sqDist(x, centroids[c])
				if d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		counts := make([]int, k)
		next := make([][]float64, k)
		for c := range next {
			next[c] = make([]float64, nf)
		}
		for i, x := range X {
			c := assign[i]
			counts[c]++
			for j, v := range x {
				next[c][j] += v
			}
		}
		for c := range next {
			if counts[c] == 0 {
				// Re-seed an empty cluster at the point farthest from its
				// centroid assignment, the standard fix.
				next[c] = append([]float64(nil), X[farthestPoint(X, centroids, assign)]...)
				continue
			}
			for j := range next[c] {
				next[c][j] /= float64(counts[c])
			}
		}
		centroids = next
	}
	var inertia float64
	for i, x := range X {
		inertia += sqDist(x, centroids[assign[i]])
	}
	return &KMeansResult{Assignments: assign, Centroids: centroids, Iters: iters, Inertia: inertia}
}

// KMeansBest runs KMeans restarts times with derived seeds and returns the
// run with the lowest inertia — the usual guard against k-means++ landing in
// a poor local optimum (scikit-learn's n_init, which the paper's baseline
// uses with its default of 10).
func KMeansBest(X [][]float64, k, maxIter, restarts int, seed uint64) *KMeansResult {
	if restarts < 1 {
		restarts = 1
	}
	r := rng.New(seed)
	var best *KMeansResult
	for i := 0; i < restarts; i++ {
		res := KMeans(X, k, maxIter, r.Uint64())
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	return best
}

// kppInit performs k-means++ seeding.
func kppInit(X [][]float64, k int, r *rng.Rand) [][]float64 {
	centroids := make([][]float64, 0, k)
	centroids = append(centroids, append([]float64(nil), X[r.Intn(len(X))]...))
	d2 := make([]float64, len(X))
	for len(centroids) < k {
		var sum float64
		for i, x := range X {
			best := math.MaxFloat64
			for _, c := range centroids {
				if d := sqDist(x, c); d < best {
					best = d
				}
			}
			d2[i] = best
			sum += best
		}
		if sum == 0 {
			// All points coincide with centroids; seed uniformly.
			centroids = append(centroids, append([]float64(nil), X[r.Intn(len(X))]...))
			continue
		}
		u := r.Float64() * sum
		idx := 0
		for acc := 0.0; idx < len(X)-1; idx++ {
			acc += d2[idx]
			if acc >= u {
				break
			}
		}
		centroids = append(centroids, append([]float64(nil), X[idx]...))
	}
	return centroids
}

func farthestPoint(X [][]float64, centroids [][]float64, assign []int) int {
	worst, worstD := 0, -1.0
	for i, x := range X {
		if d := sqDist(x, centroids[assign[i]]); d > worstD {
			worst, worstD = i, d
		}
	}
	return worst
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		dv := v - b[i]
		s += dv * dv
	}
	return s
}
