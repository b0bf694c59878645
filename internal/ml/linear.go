package ml

import (
	"math"

	"github.com/edge-hdc/generic/internal/rng"
)

// LinearKind distinguishes the two linear baselines, which share the
// one-weight-vector-per-class architecture but differ in loss.
type LinearKind int

const (
	// HingeSVM trains one-vs-rest linear SVMs with the Pegasos
	// stochastic sub-gradient solver.
	HingeSVM LinearKind = iota
	// SoftmaxLR trains multinomial logistic regression with SGD.
	SoftmaxLR
)

// LinearConfig parameterizes linear-model training.
type LinearConfig struct {
	Kind   LinearKind
	Epochs int     // default 30
	Lambda float64 // L2 regularization (default 1e-4)
	LR     float64 // SoftmaxLR learning rate (default 0.1)
	Seed   uint64
}

func (c LinearConfig) withDefaults() LinearConfig {
	if c.Epochs == 0 {
		c.Epochs = 30
	}
	if c.Lambda == 0 {
		c.Lambda = 1e-4
	}
	if c.LR == 0 {
		c.LR = 0.1
	}
	return c
}

// Linear is a trained linear multi-class model: scores = Wx + b.
type Linear struct {
	w       [][]float64 // [classes][features]
	b       []float64
	classes int
}

// FitLinear trains a linear classifier per cfg.Kind.
func FitLinear(X [][]float64, y []int, classes int, cfg LinearConfig) *Linear {
	checkXY(X, y, classes)
	cfg = cfg.withDefaults()
	nf := len(X[0])
	m := &Linear{classes: classes, b: make([]float64, classes)}
	m.w = make([][]float64, classes)
	for c := range m.w {
		m.w[c] = make([]float64, nf)
	}
	switch cfg.Kind {
	case HingeSVM:
		m.fitPegasos(X, y, cfg)
	case SoftmaxLR:
		m.fitSoftmax(X, y, cfg)
	}
	return m
}

// fitPegasos trains one-vs-rest SVMs with the averaged Pegasos schedule
// (Shalev-Shwartz et al.): step 1/(λt) on the hinge sub-gradient, returning
// the running average of the iterates, which converges far more stably than
// the last iterate on imbalanced one-vs-rest splits.
func (m *Linear) fitPegasos(X [][]float64, y []int, cfg LinearConfig) {
	r := rng.New(cfg.Seed)
	n := len(X)
	nf := len(X[0])
	counts := make([]int, m.classes)
	for _, yi := range y {
		counts[yi]++
	}
	for c := 0; c < m.classes; c++ {
		// Balanced example weights keep the one-vs-rest scores calibrated
		// around zero even for minority classes (sklearn's
		// class_weight="balanced").
		posW := float64(n) / (2 * float64(counts[c]))
		negW := float64(n) / (2 * float64(n-counts[c]))
		w := make([]float64, nf)
		avgW := make([]float64, nf)
		b, avgB := 0.0, 0.0
		t := 0
		avgN := 0.0
		radius := 1 / math.Sqrt(cfg.Lambda)
		burnIn := n // skip the first epoch's iterates in the average
		for e := 0; e < cfg.Epochs; e++ {
			for k := 0; k < n; k++ {
				t++
				i := r.Intn(n)
				yi, wi := -1.0, negW
				if y[i] == c {
					yi, wi = 1, posW
				}
				eta := 1 / (cfg.Lambda * float64(t))
				margin := b
				for j, v := range X[i] {
					margin += w[j] * v
				}
				// L2 shrink.
				decay := 1 - eta*cfg.Lambda
				for j := range w {
					w[j] *= decay
				}
				if yi*margin < 1 {
					step := eta * yi * wi
					for j, v := range X[i] {
						w[j] += step * v
					}
					b += step
				}
				// Pegasos projection: keep w inside the 1/√λ ball, which
				// bounds the iterates and is required for convergence with
				// large feature norms.
				var norm2 float64
				for _, v := range w {
					norm2 += v * v
				}
				if norm2 > radius*radius {
					scale := radius / math.Sqrt(norm2)
					for j := range w {
						w[j] *= scale
					}
					b *= scale
				}
				// Running average of post-burn-in iterates.
				if t > burnIn {
					avgN++
					inv := 1 / avgN
					for j := range avgW {
						avgW[j] += (w[j] - avgW[j]) * inv
					}
					avgB += (b - avgB) * inv
				}
			}
		}
		if avgN == 0 {
			copy(avgW, w)
			avgB = b
		}
		copy(m.w[c], avgW)
		m.b[c] = avgB
	}
	// Normalize each one-vs-rest hyperplane to unit weight norm so the
	// argmax compares signed geometric margins: raw Pegasos scores have
	// per-class scales that depend on convergence dynamics and would make
	// the one-vs-rest decision meaningless.
	for c := 0; c < m.classes; c++ {
		var norm float64
		for _, v := range m.w[c] {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			continue
		}
		for j := range m.w[c] {
			m.w[c][j] /= norm
		}
		m.b[c] /= norm
	}
}

// fitSoftmax trains multinomial logistic regression with plain SGD and a
// 1/√epoch learning-rate decay.
func (m *Linear) fitSoftmax(X [][]float64, y []int, cfg LinearConfig) {
	r := rng.New(cfg.Seed)
	n := len(X)
	scores := make([]float64, m.classes)
	probs := make([]float64, m.classes)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for e := 0; e < cfg.Epochs; e++ {
		lr := cfg.LR / math.Sqrt(float64(e+1))
		r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			x := X[i]
			for c := 0; c < m.classes; c++ {
				s := m.b[c]
				w := m.w[c]
				for j, v := range x {
					s += w[j] * v
				}
				scores[c] = s
			}
			softmax(scores, probs)
			for c := 0; c < m.classes; c++ {
				g := probs[c]
				if c == y[i] {
					g -= 1
				}
				w := m.w[c]
				for j, v := range x {
					w[j] -= lr * (g*v + cfg.Lambda*w[j])
				}
				m.b[c] -= lr * g
			}
		}
	}
}

func softmax(scores, out []float64) {
	max := scores[0]
	for _, s := range scores[1:] {
		if s > max {
			max = s
		}
	}
	var sum float64
	for i, s := range scores {
		out[i] = math.Exp(s - max)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
}

// Predict returns argmax_c w_c·x + b_c.
func (m *Linear) Predict(x []float64) int {
	best, bestS := 0, math.Inf(-1)
	for c := 0; c < m.classes; c++ {
		s := m.b[c]
		w := m.w[c]
		for j, v := range x {
			s += w[j] * v
		}
		if s > bestS {
			best, bestS = c, s
		}
	}
	return best
}
