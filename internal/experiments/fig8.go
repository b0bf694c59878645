package experiments

import (
	"fmt"
	"strings"

	"github.com/edge-hdc/generic/internal/dataset"
	"github.com/edge-hdc/generic/internal/device"
	"github.com/edge-hdc/generic/internal/encoding"
	"github.com/edge-hdc/generic/internal/metrics"
	"github.com/edge-hdc/generic/internal/ml"
	"github.com/edge-hdc/generic/internal/power"
	"github.com/edge-hdc/generic/internal/sim"
)

// Fig8Bar is one platform's per-input training cost (geomean over the
// eleven benchmarks).
type Fig8Bar struct {
	Label   string
	EnergyJ float64
	TimeS   float64
}

// Fig8Result reproduces Figure 8: training energy and execution time of
// GENERIC versus RF and SVM on the CPU and DNN and HDC on the eGPU.
type Fig8Result struct {
	Bars []Fig8Bar
	// GENERIC's average training power (paper: 2.06 mW).
	GenericTrainPowerW float64
}

// Bar finds a bar by label.
func (r *Fig8Result) Bar(label string) (Fig8Bar, bool) {
	for _, b := range r.Bars {
		if b.Label == label {
			return b, true
		}
	}
	return Fig8Bar{}, false
}

// Figure8 measures per-input training cost for each platform. GENERIC's
// numbers come from the accelerator simulator plus the power model; the
// baselines come from op counts on the device models.
func Figure8(cfg Config) (*Fig8Result, error) {
	cfg = cfg.normalized()
	var gE, gT, rfE, rfT, svmE, svmT, dnnE, dnnT, hdcE, hdcT []float64
	var powerSum, secSum float64

	subCap := 200
	if cfg.Quick {
		subCap = 60
	}
	simEpochs := 5
	if cfg.Quick {
		simEpochs = 2
	}

	for _, name := range dataset.Names() {
		ds, err := dataset.Load(name, cfg.Seed)
		if err != nil {
			return nil, err
		}
		nTrain := ds.TrainLen()
		n := 3
		if ds.Features < n {
			n = ds.Features
		}

		// GENERIC on the accelerator: simulate training on a subsample and
		// scale per-input costs (per-sample work is uniform). Feature count
		// is capped by the input memory.
		feat := ds.Features
		if feat > sim.MaxFeatures {
			feat = sim.MaxFeatures
		}
		spec := sim.Spec{
			D: PaperD, Features: feat, N: n, Classes: ds.Classes,
			BW: 16, UseID: ds.UseID, Mode: sim.Train,
		}
		acc, err := sim.NewWithRange(spec, cfg.Seed, ds.Lo, ds.Hi)
		if err != nil {
			return nil, err
		}
		nSub := nTrain
		if nSub > subCap {
			nSub = subCap
		}
		acc.Train(ds.TrainX[:nSub], ds.TrainY[:nSub], simEpochs)
		rep := power.Energy(acc.Stats(), power.Config{ActiveBankFrac: spec.ActiveBankFrac()})
		// Scale the simulated epoch budget to the paper's constant 20.
		scale := float64(cfg.Epochs+1) / float64(simEpochs+1)
		perInput := 1 / float64(nSub)
		gE = append(gE, rep.TotalJ*perInput*scale)
		gT = append(gT, rep.Seconds*perInput*scale)
		powerSum += rep.AvgPowerW
		secSum++

		// Baselines.
		p := device.MLTrainParams{Samples: nTrain, Features: ds.Features, Classes: ds.Classes}
		t, e := device.CPU.Run(p.ForestTrainOps(100, 0, 0))
		rfE, rfT = append(rfE, e/float64(nTrain)), append(rfT, t/float64(nTrain))
		t, e = device.CPU.Run(p.SVMTrainOps(30))
		svmE, svmT = append(svmE, e/float64(nTrain)), append(svmT, t/float64(nTrain))
		dnn := ml.DNNBaseline
		t, e = device.EGPU.Run(p.MLPTrainOps(dnn.Weights(ds.Features, ds.Classes), dnn.Epochs))
		dnnE, dnnT = append(dnnE, e/float64(nTrain)), append(dnnT, t/float64(nTrain))
		hp := device.HDCParams{
			Kind: encoding.Generic, D: PaperD, Features: ds.Features, N: n,
			Classes: ds.Classes, UseID: ds.UseID,
		}
		t, e = device.EGPU.Run(hp.TrainOps(nTrain, cfg.Epochs))
		hdcE, hdcT = append(hdcE, e/float64(nTrain)), append(hdcT, t/float64(nTrain))
	}

	res := &Fig8Result{GenericTrainPowerW: powerSum / secSum}
	add := func(label string, es, ts []float64) {
		res.Bars = append(res.Bars, Fig8Bar{label, metrics.GeoMean(es), metrics.GeoMean(ts)})
	}
	add("GENERIC", gE, gT)
	add("RF (CPU)", rfE, rfT)
	add("SVM (CPU)", svmE, svmT)
	add("DNN (eGPU)", dnnE, dnnT)
	add("HDC (eGPU)", hdcE, hdcT)
	return res, nil
}

// String renders the two bar groups.
func (r *Fig8Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 8: per-input training energy and execution time\n")
	t := &table{header: []string{"Platform", "Energy", "Time"}}
	for _, bar := range r.Bars {
		t.addRow(bar.Label, fmtEng(bar.EnergyJ, "J"), fmtEng(bar.TimeS, "s"))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "GENERIC average training power: %.2f mW (paper: 2.06 mW)\n",
		r.GenericTrainPowerW*1e3)
	return b.String()
}
