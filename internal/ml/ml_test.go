package ml

import (
	"testing"

	"github.com/edge-hdc/generic/internal/dataset"
	"github.com/edge-hdc/generic/internal/rng"
)

// blobs builds an easy Gaussian-blob problem.
func blobs(r *rng.Rand, classes, perClass, nf int, noise float64) (X [][]float64, y []int) {
	centers := make([][]float64, classes)
	for c := range centers {
		ctr := make([]float64, nf)
		for j := range ctr {
			ctr[j] = 3 * r.NormFloat64()
		}
		centers[c] = ctr
	}
	for c := 0; c < classes; c++ {
		for i := 0; i < perClass; i++ {
			x := make([]float64, nf)
			for j := range x {
				x[j] = centers[c][j] + noise*r.NormFloat64()
			}
			X = append(X, x)
			y = append(y, c)
		}
	}
	r.Shuffle(len(X), func(i, j int) {
		X[i], X[j] = X[j], X[i]
		y[i], y[j] = y[j], y[i]
	})
	return X, y
}

// xorData builds the classic non-linearly-separable XOR problem.
func xorData(r *rng.Rand, n int) (X [][]float64, y []int) {
	for i := 0; i < n; i++ {
		a, b := r.Float64() > 0.5, r.Float64() > 0.5
		x := []float64{0.15 * r.NormFloat64(), 0.15 * r.NormFloat64()}
		if a {
			x[0] += 1
		}
		if b {
			x[1] += 1
		}
		X = append(X, x)
		if a != b {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	return X, y
}

func TestTreeOnBlobs(t *testing.T) {
	r := rng.New(1)
	X, y := blobs(r, 3, 100, 5, 0.5)
	tree := FitTree(X, y, 3, TreeConfig{MaxDepth: 10}, 1)
	if acc := Accuracy(tree, X, y); acc < 0.95 {
		t.Errorf("tree train accuracy = %.3f, want > 0.95", acc)
	}
	if tree.Depth() < 1 || tree.Nodes() < 3 {
		t.Errorf("degenerate tree: depth %d, nodes %d", tree.Depth(), tree.Nodes())
	}
}

func TestTreePureLeafStopsEarly(t *testing.T) {
	X := [][]float64{{0}, {0.1}, {0.9}, {1}}
	y := []int{0, 0, 1, 1}
	tree := FitTree(X, y, 2, TreeConfig{}, 1)
	if acc := Accuracy(tree, X, y); acc != 1 {
		t.Errorf("separable 1-D data accuracy = %v", acc)
	}
	if tree.Nodes() > 7 {
		t.Errorf("tree grew %d nodes on a 1-split problem", tree.Nodes())
	}
}

func TestTreeXor(t *testing.T) {
	r := rng.New(2)
	X, y := xorData(r, 400)
	tree := FitTree(X, y, 2, TreeConfig{MaxDepth: 6}, 1)
	if acc := Accuracy(tree, X, y); acc < 0.95 {
		t.Errorf("tree should solve XOR with depth 2+: accuracy %.3f", acc)
	}
}

func TestForestGeneralizes(t *testing.T) {
	r := rng.New(3)
	X, y := blobs(r, 4, 80, 8, 1.2)
	Xt, yt := blobs(rng.New(4), 4, 20, 8, 1.2)
	_ = Xt
	_ = yt
	f := FitForest(X, y, 4, ForestConfig{Trees: 30, MaxDepth: 10, Seed: 1})
	if f.Trees() != 30 {
		t.Fatalf("Trees() = %d", f.Trees())
	}
	if acc := Accuracy(f, X, y); acc < 0.95 {
		t.Errorf("forest train accuracy = %.3f", acc)
	}
}

func TestForestBeatsSingleTreeOnNoisy(t *testing.T) {
	r := rng.New(5)
	X, y := blobs(r, 3, 120, 6, 2.4)
	XT, yT := blobs(rng.New(77), 3, 0, 6, 2.4)
	_ = XT
	_ = yT
	// Hold out the last quarter for testing.
	cut := len(X) * 3 / 4
	tree := FitTree(X[:cut], y[:cut], 3, TreeConfig{}, 1)
	forest := FitForest(X[:cut], y[:cut], 3, ForestConfig{Trees: 40, Seed: 1})
	accT := Accuracy(tree, X[cut:], y[cut:])
	accF := Accuracy(forest, X[cut:], y[cut:])
	if accF+0.05 < accT {
		t.Errorf("forest (%.3f) much worse than single tree (%.3f)", accF, accT)
	}
}

func TestSVMOnBlobs(t *testing.T) {
	r := rng.New(6)
	X, y := blobs(r, 3, 100, 5, 0.6)
	svm := FitLinear(X, y, 3, LinearConfig{Kind: HingeSVM, Epochs: 20, Seed: 1})
	if acc := Accuracy(svm, X, y); acc < 0.95 {
		t.Errorf("SVM train accuracy = %.3f", acc)
	}
}

func TestLROnBlobs(t *testing.T) {
	r := rng.New(7)
	X, y := blobs(r, 4, 100, 5, 0.6)
	lr := FitLinear(X, y, 4, LinearConfig{Kind: SoftmaxLR, Epochs: 20, Seed: 1})
	if acc := Accuracy(lr, X, y); acc < 0.95 {
		t.Errorf("LR train accuracy = %.3f", acc)
	}
}

func TestLinearFailsXor(t *testing.T) {
	// Sanity: a linear model cannot solve XOR; this guards against the
	// implementation accidentally being non-linear.
	r := rng.New(8)
	X, y := xorData(r, 400)
	svm := FitLinear(X, y, 2, LinearConfig{Kind: HingeSVM, Epochs: 30, Seed: 1})
	if acc := Accuracy(svm, X, y); acc > 0.8 {
		t.Errorf("linear SVM 'solved' XOR (%.3f) — implementation is not linear", acc)
	}
}

func TestMLPSolvesXor(t *testing.T) {
	r := rng.New(9)
	X, y := xorData(r, 400)
	mlp := FitMLP(X, y, 2, MLPConfig{Hidden: []int{16}, Epochs: 80, Seed: 1})
	if acc := Accuracy(mlp, X, y); acc < 0.97 {
		t.Errorf("MLP XOR accuracy = %.3f, want ≈1", acc)
	}
}

func TestMLPOnBlobs(t *testing.T) {
	r := rng.New(10)
	X, y := blobs(r, 5, 80, 6, 0.8)
	cfg := MLPConfig{Hidden: []int{32}, Epochs: 30, Seed: 1}
	mlp := FitMLP(X, y, 5, cfg)
	if acc := Accuracy(mlp, X, y); acc < 0.95 {
		t.Errorf("MLP blob accuracy = %.3f", acc)
	}
	// The device figures count from Weights: it must match what FitMLP
	// trains, with the defaults applied.
	for _, c := range []MLPConfig{cfg, {}, MLPBaseline, DNNBaseline} {
		var trained int64
		for _, ly := range FitMLP(X, y, 5, MLPConfig{Hidden: c.Hidden, Epochs: 1}).layers {
			trained += int64(len(ly.w) + len(ly.b))
		}
		if got := c.Weights(6, 5); got != trained {
			t.Errorf("Weights(%v) = %d, FitMLP trained %d parameters", c.Hidden, got, trained)
		}
	}
}

func TestDNNConfigDeeper(t *testing.T) {
	if len(DNNBaseline.Hidden) <= len(MLPBaseline.Hidden) {
		t.Fatal("DNN baseline should have more hidden layers than the MLP")
	}
}

func TestCheckXYPanics(t *testing.T) {
	cases := []struct {
		X [][]float64
		y []int
		c int
	}{
		{nil, nil, 2},
		{[][]float64{{1}}, []int{0, 1}, 2},
		{[][]float64{{1}}, []int{0}, 1},
		{[][]float64{{1}}, []int{5}, 2},
	}
	for i, cse := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			checkXY(cse.X, cse.y, cse.c)
		}()
	}
}

func TestPredictAll(t *testing.T) {
	r := rng.New(12)
	X, y := blobs(r, 2, 20, 3, 0.3)
	tree := FitTree(X, y, 2, TreeConfig{}, 1)
	preds := PredictAll(tree, X)
	if len(preds) != len(X) {
		t.Fatal("PredictAll length mismatch")
	}
}

func TestDeterministicTraining(t *testing.T) {
	r := rng.New(13)
	X, y := blobs(r, 3, 50, 4, 1.0)
	a := FitMLP(X, y, 3, MLPConfig{Hidden: []int{16}, Epochs: 5, Seed: 42})
	b := FitMLP(X, y, 3, MLPConfig{Hidden: []int{16}, Epochs: 5, Seed: 42})
	for i, x := range X {
		if a.Predict(x) != b.Predict(x) {
			t.Fatalf("MLP training not deterministic at sample %d", i)
		}
	}
}

// TestBaselinesOnRealBenchmark runs every baseline on a generated benchmark
// end to end (normalized features), guarding integration regressions.
func TestBaselinesOnRealBenchmark(t *testing.T) {
	ds := dataset.MustLoad("PAGE", 1)
	trainX, testX := ds.Normalized()
	models := map[string]Classifier{
		"RF":  FitForest(trainX, ds.TrainY, ds.Classes, ForestConfig{Trees: 30, Seed: 1}),
		"SVM": FitLinear(trainX, ds.TrainY, ds.Classes, LinearConfig{Kind: HingeSVM, Seed: 1}),
		"LR":  FitLinear(trainX, ds.TrainY, ds.Classes, LinearConfig{Kind: SoftmaxLR, Seed: 1}),
		"MLP": FitMLP(trainX, ds.TrainY, ds.Classes, MLPConfig{Hidden: []int{64}, Epochs: 20, Seed: 1}),
	}
	for name, m := range models {
		acc := 0.0
		correct := 0
		for i, x := range testX {
			if m.Predict(x) == ds.TestY[i] {
				correct++
			}
		}
		acc = float64(correct) / float64(len(testX))
		if acc < 0.8 {
			t.Errorf("%s on PAGE: accuracy %.3f below sanity floor", name, acc)
		}
	}
}

func BenchmarkForestTrain(b *testing.B) {
	r := rng.New(1)
	X, y := blobs(r, 4, 50, 8, 1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FitForest(X, y, 4, ForestConfig{Trees: 10, Seed: uint64(i)})
	}
}

func BenchmarkMLPEpoch(b *testing.B) {
	r := rng.New(1)
	X, y := blobs(r, 4, 50, 16, 1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FitMLP(X, y, 4, MLPConfig{Hidden: []int{32}, Epochs: 1, Seed: uint64(i)})
	}
}
