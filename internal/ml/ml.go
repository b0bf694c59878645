// Package ml implements the classical machine-learning baselines the paper
// compares HDC against in Table 1: decision-tree random forests, linear SVM
// (Pegasos), logistic regression, and multi-layer perceptrons (the "DNN"
// baseline is a deeper MLP). All are built from scratch on the standard
// library so the repository is self-contained. The device figures (Figs. 3,
// 8 and 9) count the baselines' operations with formulas instead of
// training them; the MLP and DNN shapes that Table 1 trains and those
// figures count are defined once, here.
package ml

import "fmt"

// Classifier is a trained multi-class model.
type Classifier interface {
	// Predict returns the class index for one feature vector.
	Predict(x []float64) int
}

// PredictAll applies a classifier to every row.
func PredictAll(c Classifier, X [][]float64) []int {
	out := make([]int, len(X))
	for i, x := range X {
		out[i] = c.Predict(x)
	}
	return out
}

// Accuracy scores a classifier against labels.
func Accuracy(c Classifier, X [][]float64, y []int) float64 {
	if len(X) == 0 {
		return 0
	}
	correct := 0
	for i, x := range X {
		if c.Predict(x) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(X))
}

func checkXY(X [][]float64, y []int, classes int) {
	if len(X) == 0 || len(X) != len(y) {
		panic(fmt.Sprintf("ml: bad training set: %d samples, %d labels", len(X), len(y)))
	}
	if classes < 2 {
		panic(fmt.Sprintf("ml: need at least 2 classes, got %d", classes))
	}
	for i, label := range y {
		if label < 0 || label >= classes {
			panic(fmt.Sprintf("ml: label %d at row %d out of range [0,%d)", label, i, classes))
		}
	}
}

func argmax(xs []float64) int {
	best, bestV := 0, xs[0]
	for i, v := range xs[1:] {
		if v > bestV {
			best, bestV = i+1, v
		}
	}
	return best
}
