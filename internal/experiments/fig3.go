package experiments

import (
	"strings"

	"github.com/edge-hdc/generic/internal/dataset"
	"github.com/edge-hdc/generic/internal/device"
	"github.com/edge-hdc/generic/internal/encoding"
	"github.com/edge-hdc/generic/internal/metrics"
	"github.com/edge-hdc/generic/internal/ml"
)

// Fig3Algorithms lists the algorithm labels of Figure 3 in display order.
// HDC encodings come first, classical baselines after.
var Fig3Algorithms = []string{"RP", "level-id", "GENERIC", "MLP", "SVM", "RF", "LR", "KNN", "DNN"}

// Fig3Cell is one (device, algorithm) measurement: per-input averages over
// the geometric mean of the eleven benchmarks.
type Fig3Cell struct {
	Device    string
	Algorithm string
	// Per-input energy (J) and time (s).
	TrainEnergyJ, InferEnergyJ float64
	TrainTimeS, InferTimeS     float64
}

// Fig3Result reproduces Figure 3: energy and execution time of HDC and ML
// algorithms on the Raspberry Pi, CPU, and eGPU.
type Fig3Result struct {
	Cells []Fig3Cell
}

// Cell finds a measurement by device and algorithm name.
func (r *Fig3Result) Cell(dev, alg string) (Fig3Cell, bool) {
	for _, c := range r.Cells {
		if c.Device == dev && c.Algorithm == alg {
			return c, true
		}
	}
	return Fig3Cell{}, false
}

// mlShape captures the analytic operation counts of a classical baseline on
// one dataset, without training it (Figure 3 needs op counts, not models).
type mlShape struct {
	inferOps func(d, nC, nTrain int) int64
	trainOps func(p device.MLTrainParams) device.Ops
}

var fig3ML = map[string]mlShape{
	"MLP": netShape(ml.MLPBaseline),
	"SVM": {
		inferOps: func(d, nC, _ int) int64 { return int64(nC) * int64(d+1) },
		trainOps: func(p device.MLTrainParams) device.Ops { return p.SVMTrainOps(30) },
	},
	"RF": {
		inferOps: func(_, nC, nTrain int) int64 { return 100 * int64(log2i(nTrain)) },
		trainOps: func(p device.MLTrainParams) device.Ops { return p.ForestTrainOps(100, 0, 0) },
	},
	"LR": {
		inferOps: func(d, nC, _ int) int64 { return int64(nC) * int64(d+1) },
		trainOps: func(p device.MLTrainParams) device.Ops { return p.LRTrainOps(30) },
	},
	"KNN": {
		inferOps: func(d, _, nTrain int) int64 { return int64(nTrain) * int64(d) * 2 },
		trainOps: func(p device.MLTrainParams) device.Ops { return device.Ops{} },
	},
	"DNN": netShape(ml.DNNBaseline),
}

// netShape counts a network baseline: one MAC per weight per inference, and
// backprop over its configured epochs for training.
func netShape(cfg ml.MLPConfig) mlShape {
	return mlShape{
		inferOps: func(d, nC, _ int) int64 { return cfg.Weights(d, nC) },
		trainOps: func(p device.MLTrainParams) device.Ops {
			return p.MLPTrainOps(cfg.Weights(p.Features, p.Classes), cfg.Epochs)
		},
	}
}

var fig3HDC = map[string]encoding.Kind{
	"RP": encoding.RP, "level-id": encoding.LevelID, "GENERIC": encoding.Generic,
}

// fig3HDCOrder and fig3MLOrder fix the iteration order of the algorithm
// tables above: ranging over the maps directly would aggregate cells in a
// per-run random order.
var (
	fig3HDCOrder = []string{"RP", "level-id", "GENERIC"}
	fig3MLOrder  = []string{"MLP", "SVM", "RF", "LR", "KNN", "DNN"}
)

// PaperD is the hypervector dimensionality of the paper's hardware
// operating point. The device- and accelerator-energy experiments always
// run at this size — op counting is cheap, so Quick mode does not shrink
// it (it only shrinks accuracy-oriented experiments).
const PaperD = 4096

// Figure3 computes per-input training and inference energy/latency for
// every (device, algorithm) pair, aggregated as the geometric mean over the
// eleven classification benchmarks — the layout of the paper's Figure 3.
// The paper omits classical ML on the eGPU (it performed worse than the
// CPU); this harness does the same.
// fig3Entry is one dataset's contribution to a (device, algorithm) cell.
type fig3Entry struct {
	key            string
	ie, it, te, tt float64
}

func Figure3(cfg Config) (*Fig3Result, error) {
	cfg = cfg.normalized()
	key := func(dev, alg string) string { return dev + "|" + alg }

	// Each dataset's measurements are independent; fan them across workers
	// and merge per-dataset entry lists in dataset order, so every cell's
	// aggregation sequence — and hence its geomean — matches the serial run.
	names := dataset.Names()
	perDataset := make([][]fig3Entry, len(names))
	err := cfg.fanOut(len(names), func(idx int) error {
		ds, err := dataset.Load(names[idx], cfg.Seed)
		if err != nil {
			return err
		}
		nTrain := ds.TrainLen()
		p := device.MLTrainParams{Samples: nTrain, Features: ds.Features, Classes: ds.Classes}

		var entries []fig3Entry
		for _, dev := range device.Devices() {
			for _, alg := range fig3HDCOrder {
				kind := fig3HDC[alg]
				n := 3
				if ds.Features < n {
					n = ds.Features
				}
				hp := device.HDCParams{
					Kind: kind, D: PaperD, Features: ds.Features, N: n,
					Classes: ds.Classes, UseID: ds.UseID,
				}
				it, ie := dev.Run(hp.InferOps())
				tt, te := dev.Run(hp.TrainOps(nTrain, cfg.Epochs))
				tt, te = tt/float64(nTrain), te/float64(nTrain)
				entries = append(entries, fig3Entry{key(dev.Name, alg), ie, it, te, tt})
			}
			if dev.Name == device.EGPU.Name {
				// Classical ML on the eGPU: only DNN, as in the paper.
				sh := fig3ML["DNN"]
				it, ie := dev.Run(device.MLInferOps(sh.inferOps(ds.Features, ds.Classes, nTrain)))
				tt, te := dev.Run(sh.trainOps(p))
				entries = append(entries, fig3Entry{
					key(dev.Name, "DNN"), ie, it, te / float64(nTrain), tt / float64(nTrain)})
				continue
			}
			for _, alg := range fig3MLOrder {
				sh := fig3ML[alg]
				it, ie := dev.Run(device.MLInferOps(sh.inferOps(ds.Features, ds.Classes, nTrain)))
				tt, te := dev.Run(sh.trainOps(p))
				entries = append(entries, fig3Entry{
					key(dev.Name, alg), ie, it, te / float64(nTrain), tt / float64(nTrain)})
			}
		}
		perDataset[idx] = entries
		return nil
	})
	if err != nil {
		return nil, err
	}

	sums := map[string]*fig3Agg{}
	for _, entries := range perDataset {
		for _, e := range entries {
			a := getAgg(sums, e.key)
			a.ie = append(a.ie, e.ie)
			a.it = append(a.it, e.it)
			a.te = append(a.te, e.te)
			a.tt = append(a.tt, e.tt)
		}
	}

	res := &Fig3Result{}
	for _, dev := range device.Devices() {
		for _, alg := range Fig3Algorithms {
			a, ok := sums[key(dev.Name, alg)]
			if !ok {
				continue
			}
			res.Cells = append(res.Cells, Fig3Cell{
				Device: dev.Name, Algorithm: alg,
				InferEnergyJ: metrics.GeoMean(a.ie), InferTimeS: metrics.GeoMean(a.it),
				TrainEnergyJ: metrics.GeoMean(a.te), TrainTimeS: metrics.GeoMean(a.tt),
			})
		}
	}
	return res, nil
}

type fig3Agg struct{ te, ie, tt, it []float64 }

func getAgg(m map[string]*fig3Agg, k string) *fig3Agg {
	a, ok := m[k]
	if !ok {
		a = &fig3Agg{}
		m[k] = a
	}
	return a
}

func log2i(x int) int {
	n := 0
	for x > 1 {
		x >>= 1
		n++
	}
	if n == 0 {
		return 1
	}
	return n
}

// String renders the figure as two tables (energy, time) like Fig. 3a/3b.
func (r *Fig3Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 3(a): per-input energy (train / inference)\n")
	te := &table{header: []string{"Device", "Algorithm", "Train", "Inference"}}
	for _, c := range r.Cells {
		te.addRow(c.Device, c.Algorithm, fmtEng(c.TrainEnergyJ, "J"), fmtEng(c.InferEnergyJ, "J"))
	}
	b.WriteString(te.String())
	b.WriteString("\nFigure 3(b): per-input execution time (train / inference)\n")
	tt := &table{header: []string{"Device", "Algorithm", "Train", "Inference"}}
	for _, c := range r.Cells {
		tt.addRow(c.Device, c.Algorithm, fmtEng(c.TrainTimeS, "s"), fmtEng(c.InferTimeS, "s"))
	}
	b.WriteString(tt.String())
	return b.String()
}
