package ml

import (
	"math"

	"github.com/edge-hdc/generic/internal/rng"
)

// MLPConfig parameterizes multi-layer-perceptron training.
type MLPConfig struct {
	Hidden    []int   // hidden layer sizes, default MLPBaseline's
	Epochs    int     // default MLPBaseline's
	BatchSize int     // default 32
	LR        float64 // Adam learning rate, default 1e-3
	L2        float64 // weight decay, default 1e-5
	Seed      uint64
}

func (c MLPConfig) withDefaults() MLPConfig {
	if len(c.Hidden) == 0 {
		c.Hidden = MLPBaseline.Hidden
	}
	if c.Epochs == 0 {
		c.Epochs = MLPBaseline.Epochs
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.L2 == 0 {
		c.L2 = 1e-5
	}
	return c
}

// The paper's classical network baselines (Table 1, Figs. 3, 8 and 9): the
// "MLP" has one hidden layer, and the "DNN" (found via AutoKeras in the
// paper) is modeled as a deeper, wider MLP. Table 1 trains these shapes; the
// device figures count their operations from Weights.
var (
	MLPBaseline = MLPConfig{Hidden: []int{128}, Epochs: 40}
	DNNBaseline = MLPConfig{Hidden: []int{256, 128, 64}, Epochs: 60}
)

// Weights returns the parameter count of the network FitMLP builds from c
// over features inputs and classes outputs, Σ(in+1)·out over its layers. One
// inference costs one MAC per weight.
func (c MLPConfig) Weights(features, classes int) int64 {
	c = c.withDefaults()
	var n int64
	in := features
	for _, out := range c.Hidden {
		n += int64(in+1) * int64(out)
		in = out
	}
	return n + int64(in+1)*int64(classes)
}

type layer struct {
	in, out int
	w       []float64 // row-major [out][in]
	b       []float64
	// Adam moments.
	mw, vw []float64
	mb, vb []float64
}

// MLP is a feed-forward ReLU network trained with Adam on softmax
// cross-entropy.
type MLP struct {
	layers  []*layer
	classes int
	// scratch per Predict call (single-threaded use).
	acts [][]float64
}

// FitMLP trains an MLP.
func FitMLP(X [][]float64, y []int, classes int, cfg MLPConfig) *MLP {
	checkXY(X, y, classes)
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed)
	sizes := append([]int{len(X[0])}, cfg.Hidden...)
	sizes = append(sizes, classes)
	m := &MLP{classes: classes}
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		ly := &layer{
			in: in, out: out,
			w: make([]float64, in*out), b: make([]float64, out),
			mw: make([]float64, in*out), vw: make([]float64, in*out),
			mb: make([]float64, out), vb: make([]float64, out),
		}
		// He initialization for ReLU.
		scale := math.Sqrt(2 / float64(in))
		for i := range ly.w {
			ly.w[i] = scale * r.NormFloat64()
		}
		m.layers = append(m.layers, ly)
	}
	m.acts = make([][]float64, len(m.layers)+1)
	for l, s := range sizes {
		m.acts[l] = make([]float64, s)
	}
	m.train(X, y, cfg, r)
	return m
}

func (m *MLP) train(X [][]float64, y []int, cfg MLPConfig, r *rng.Rand) {
	n := len(X)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Gradient buffers mirroring layers.
	gw := make([][]float64, len(m.layers))
	gb := make([][]float64, len(m.layers))
	deltas := make([][]float64, len(m.layers))
	for l, ly := range m.layers {
		gw[l] = make([]float64, len(ly.w))
		gb[l] = make([]float64, len(ly.b))
		deltas[l] = make([]float64, ly.out)
	}
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	step := 0
	for e := 0; e < cfg.Epochs; e++ {
		r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < n; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			for l := range gw {
				zero(gw[l])
				zero(gb[l])
			}
			for _, i := range order[start:end] {
				m.forward(X[i])
				// Output delta: softmax − one-hot.
				out := m.acts[len(m.layers)]
				softmax(out, deltas[len(m.layers)-1])
				deltas[len(m.layers)-1][y[i]] -= 1
				// Backward pass.
				for l := len(m.layers) - 1; l >= 0; l-- {
					ly := m.layers[l]
					din := m.acts[l]
					delta := deltas[l]
					for o := 0; o < ly.out; o++ {
						d := delta[o]
						if d == 0 {
							continue
						}
						row := ly.w[o*ly.in : (o+1)*ly.in]
						grow := gw[l][o*ly.in : (o+1)*ly.in]
						for j, v := range din {
							grow[j] += d * v
						}
						gb[l][o] += d
						_ = row
					}
					if l > 0 {
						prev := deltas[l-1]
						zero(prev)
						for o := 0; o < ly.out; o++ {
							d := delta[o]
							if d == 0 {
								continue
							}
							row := ly.w[o*ly.in : (o+1)*ly.in]
							for j := range prev {
								prev[j] += d * row[j]
							}
						}
						// ReLU gate on the pre-layer activation.
						for j, a := range m.acts[l] {
							if a <= 0 {
								prev[j] = 0
							}
						}
					}
				}
			}
			// Adam update.
			step++
			bs := float64(end - start)
			bc1 := 1 - math.Pow(beta1, float64(step))
			bc2 := 1 - math.Pow(beta2, float64(step))
			for l, ly := range m.layers {
				for i := range ly.w {
					g := gw[l][i]/bs + cfg.L2*ly.w[i]
					ly.mw[i] = beta1*ly.mw[i] + (1-beta1)*g
					ly.vw[i] = beta2*ly.vw[i] + (1-beta2)*g*g
					ly.w[i] -= cfg.LR * (ly.mw[i] / bc1) / (math.Sqrt(ly.vw[i]/bc2) + eps)
				}
				for i := range ly.b {
					g := gb[l][i] / bs
					ly.mb[i] = beta1*ly.mb[i] + (1-beta1)*g
					ly.vb[i] = beta2*ly.vb[i] + (1-beta2)*g*g
					ly.b[i] -= cfg.LR * (ly.mb[i] / bc1) / (math.Sqrt(ly.vb[i]/bc2) + eps)
				}
			}
		}
	}
}

// forward fills m.acts; the final activation is the raw logits.
func (m *MLP) forward(x []float64) {
	copy(m.acts[0], x)
	for l, ly := range m.layers {
		in := m.acts[l]
		out := m.acts[l+1]
		for o := 0; o < ly.out; o++ {
			s := ly.b[o]
			row := ly.w[o*ly.in : (o+1)*ly.in]
			for j, v := range in {
				s += row[j] * v
			}
			if l < len(m.layers)-1 && s < 0 {
				s = 0 // ReLU on hidden layers
			}
			out[o] = s
		}
	}
}

func zero(xs []float64) {
	for i := range xs {
		xs[i] = 0
	}
}

// Predict returns the argmax logit class.
func (m *MLP) Predict(x []float64) int {
	m.forward(x)
	return argmax(m.acts[len(m.layers)])
}
