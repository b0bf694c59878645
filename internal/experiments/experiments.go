// Package experiments regenerates every table and figure of the GENERIC
// paper's evaluation (DAC'22 §3.2, §5): each experiment is a function that
// runs the actual implementations in this repository — encoders,
// classifiers, baselines, the accelerator simulator, and the device energy
// models — and returns structured rows plus a paper-style text rendering.
//
// The EXPERIMENTS.md file at the repository root records, for each
// experiment, the paper's reported numbers next to the numbers this harness
// measures, and which shape properties are expected to hold.
package experiments

import (
	"fmt"
	"strings"

	"github.com/edge-hdc/generic/internal/classifier"
	"github.com/edge-hdc/generic/internal/dataset"
	"github.com/edge-hdc/generic/internal/encoding"
	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/parallel"
)

// Config controls the fidelity/runtime trade-off of the harness.
type Config struct {
	// Seed drives all stochastic components.
	Seed uint64
	// D is the hypervector dimensionality (paper default 4096).
	D int
	// Epochs is the HDC retraining epoch count (paper: 20).
	Epochs int
	// Quick shrinks dimensionalities and training budgets so the whole
	// suite runs in seconds (used by tests and Go benchmarks); the shapes
	// of every result are preserved, only variances grow.
	Quick bool
	// Workers fans the per-dataset/per-config sweeps of each harness (and
	// the batch evaluate inside them) across this many workers. Zero or
	// negative means GOMAXPROCS; 1 forces the serial path. Every sweep
	// iteration is independently seeded from Config, so results are
	// bit-identical for any worker count.
	Workers int
}

// fanOut runs fn(i) for every i in [0, n) across cfg.Workers workers,
// returning the error of the lowest failing index (what the serial loop
// would have reported). Harnesses write row i of a pre-sized slice inside
// fn, keeping output order — and therefore rendered tables — deterministic.
func (c Config) fanOut(n int, fn func(i int) error) error {
	return parallel.ForErr(c.Workers, n, fn)
}

// Default returns the paper-fidelity configuration.
func Default() Config { return Config{Seed: 1, D: 4096, Epochs: 20} }

// QuickConfig returns the fast configuration for tests and benches.
func QuickConfig() Config { return Config{Seed: 1, D: 1024, Epochs: 5, Quick: true} }

func (c Config) normalized() Config {
	if c.D == 0 {
		c.D = 4096
	}
	if c.Epochs == 0 {
		c.Epochs = 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// encodeAndTrain encodes both splits of ds with enc and trains a full-D
// model on the training split with cfg's epochs, seed and workers. It
// returns the model, the encoded test split, and Train's error.
func encodeAndTrain(enc encoding.Encoder, ds *dataset.Dataset, cfg Config) (*classifier.Model, []hdc.Vec, error) {
	trainH := encoding.EncodeAllWorkers(enc, ds.TrainX, cfg.Workers)
	testH := encoding.EncodeAllWorkers(enc, ds.TestX, cfg.Workers)
	m, _, err := classifier.Train(trainH, ds.TrainY, ds.Classes, classifier.Options{
		Epochs: cfg.Epochs, Seed: cfg.Seed, Workers: cfg.Workers,
	}, nil)
	return m, testH, err
}

// fmtPct renders 0.935 as "93.5".
func fmtPct(x float64) string { return fmt.Sprintf("%5.1f", 100*x) }

// fmtEng renders a quantity in engineering notation with a unit.
func fmtEng(x float64, unit string) string {
	switch {
	case x == 0:
		return "0 " + unit
	case x >= 1:
		return fmt.Sprintf("%.3g %s", x, unit)
	case x >= 1e-3:
		return fmt.Sprintf("%.3g m%s", x*1e3, unit)
	case x >= 1e-6:
		return fmt.Sprintf("%.3g µ%s", x*1e6, unit)
	case x >= 1e-9:
		return fmt.Sprintf("%.3g n%s", x*1e9, unit)
	default:
		return fmt.Sprintf("%.3g p%s", x*1e12, unit)
	}
}

// table is a tiny fixed-width text-table builder for paper-style output.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
