package ml

import (
	"math"
	"sort"

	"github.com/edge-hdc/generic/internal/rng"
)

// TreeConfig parameterizes CART decision trees.
type TreeConfig struct {
	MaxDepth        int // 0 means unlimited
	MinSamplesLeaf  int // minimum samples per leaf (default 1)
	MaxFeatures     int // features tried per split; 0 means all (√d for forests)
	MinImpurityDrop float64
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MinSamplesLeaf == 0 {
		c.MinSamplesLeaf = 1
	}
	return c
}

type treeNode struct {
	feature  int // -1 for leaf
	thresh   float64
	left     int // child indices into Tree.nodes
	right    int
	class    int
	nSamples int
}

// Tree is a trained CART decision tree with gini-impurity splits.
type Tree struct {
	nodes   []treeNode
	classes int
	depth   int
}

// FitTree trains a decision tree.
func FitTree(X [][]float64, y []int, classes int, cfg TreeConfig, seed uint64) *Tree {
	checkXY(X, y, classes)
	cfg = cfg.withDefaults()
	t := &Tree{classes: classes}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	r := rng.New(seed)
	t.build(X, y, idx, cfg, 0, r)
	return t
}

// build grows the subtree over the samples in idx and returns its node index.
func (t *Tree) build(X [][]float64, y []int, idx []int, cfg TreeConfig, depth int, r *rng.Rand) int {
	if depth > t.depth {
		t.depth = depth
	}
	counts := make([]int, t.classes)
	for _, i := range idx {
		counts[y[i]]++
	}
	major, majorN := 0, 0
	for c, n := range counts {
		if n > majorN {
			major, majorN = c, n
		}
	}
	nodeIdx := len(t.nodes)
	t.nodes = append(t.nodes, treeNode{feature: -1, class: major, nSamples: len(idx)})

	pure := majorN == len(idx)
	if pure || len(idx) < 2*cfg.MinSamplesLeaf || (cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) {
		return nodeIdx
	}

	feat, thresh, gain := t.bestSplit(X, y, idx, cfg, r)
	if feat < 0 || gain <= cfg.MinImpurityDrop {
		return nodeIdx
	}
	var left, right []int
	for _, i := range idx {
		if X[i][feat] <= thresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < cfg.MinSamplesLeaf || len(right) < cfg.MinSamplesLeaf {
		return nodeIdx
	}
	l := t.build(X, y, left, cfg, depth+1, r)
	rt := t.build(X, y, right, cfg, depth+1, r)
	t.nodes[nodeIdx].feature = feat
	t.nodes[nodeIdx].thresh = thresh
	t.nodes[nodeIdx].left = l
	t.nodes[nodeIdx].right = rt
	return nodeIdx
}

// bestSplit scans candidate features for the gini-optimal threshold.
func (t *Tree) bestSplit(X [][]float64, y []int, idx []int, cfg TreeConfig, r *rng.Rand) (feature int, thresh, gain float64) {
	nf := len(X[0])
	features := make([]int, nf)
	for i := range features {
		features[i] = i
	}
	if cfg.MaxFeatures > 0 && cfg.MaxFeatures < nf {
		r.Shuffle(nf, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:cfg.MaxFeatures]
	}

	parentGini := giniOf(y, idx, t.classes)
	bestGain := 0.0
	feature = -1

	type fv struct {
		v float64
		y int
	}
	vals := make([]fv, len(idx))
	leftCounts := make([]int, t.classes)
	rightCounts := make([]int, t.classes)

	for _, f := range features {
		for k, i := range idx {
			vals[k] = fv{X[i][f], y[i]}
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
		for c := range leftCounts {
			leftCounts[c] = 0
			rightCounts[c] = 0
		}
		for _, v := range vals {
			rightCounts[v.y]++
		}
		nLeft, nRight := 0, len(vals)
		for k := 0; k < len(vals)-1; k++ {
			leftCounts[vals[k].y]++
			rightCounts[vals[k].y]--
			nLeft++
			nRight--
			if vals[k].v == vals[k+1].v {
				continue // cannot split between equal values
			}
			g := parentGini - (float64(nLeft)*gini(leftCounts, nLeft)+
				float64(nRight)*gini(rightCounts, nRight))/float64(len(vals))
			if g > bestGain {
				bestGain = g
				feature = f
				thresh = (vals[k].v + vals[k+1].v) / 2
			}
		}
	}
	return feature, thresh, bestGain
}

func giniOf(y []int, idx []int, classes int) float64 {
	counts := make([]int, classes)
	for _, i := range idx {
		counts[y[i]]++
	}
	return gini(counts, len(idx))
}

func gini(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	s := 1.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		s -= p * p
	}
	return s
}

// Predict walks the tree to a leaf.
func (t *Tree) Predict(x []float64) int {
	n := 0
	for {
		node := &t.nodes[n]
		if node.feature < 0 {
			return node.class
		}
		if x[node.feature] <= node.thresh {
			n = node.left
		} else {
			n = node.right
		}
	}
}

// Depth returns the trained tree depth; Nodes the node count.
func (t *Tree) Depth() int { return t.depth }
func (t *Tree) Nodes() int { return len(t.nodes) }

// Forest is a bagged random forest of CART trees.
type Forest struct {
	trees   []*Tree
	classes int
}

// ForestConfig parameterizes random-forest training.
type ForestConfig struct {
	Trees    int // default 100 (scikit-learn default, as the paper uses)
	MaxDepth int
	Seed     uint64
}

// FitForest trains a random forest: each tree sees a bootstrap sample and
// √d random features per split.
func FitForest(X [][]float64, y []int, classes int, cfg ForestConfig) *Forest {
	checkXY(X, y, classes)
	if cfg.Trees == 0 {
		cfg.Trees = 100
	}
	nf := len(X[0])
	maxFeat := int(math.Sqrt(float64(nf)))
	if maxFeat < 1 {
		maxFeat = 1
	}
	r := rng.New(cfg.Seed)
	f := &Forest{classes: classes, trees: make([]*Tree, cfg.Trees)}
	bx := make([][]float64, len(X))
	by := make([]int, len(X))
	for k := range f.trees {
		for i := range bx {
			j := r.Intn(len(X))
			bx[i], by[i] = X[j], y[j]
		}
		f.trees[k] = FitTree(bx, by, classes, TreeConfig{
			MaxDepth:    cfg.MaxDepth,
			MaxFeatures: maxFeat,
		}, r.Uint64())
	}
	return f
}

// Predict returns the majority vote across trees.
func (f *Forest) Predict(x []float64) int {
	votes := make([]int, f.classes)
	for _, t := range f.trees {
		votes[t.Predict(x)]++
	}
	best, bestN := 0, -1
	for c, n := range votes {
		if n > bestN {
			best, bestN = c, n
		}
	}
	return best
}

// Trees returns the ensemble size.
func (f *Forest) Trees() int { return len(f.trees) }
