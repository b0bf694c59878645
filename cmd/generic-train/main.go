// Command generic-train trains and evaluates an HDC classifier on one of
// the paper's benchmarks, reporting test accuracy and, optionally, the
// accuracy under bit-width quantization and dimension reduction.
//
// Usage:
//
//	generic-train -dataset EEG
//	generic-train -dataset ISOLET -encoding ngram -d 2048 -epochs 10
//	generic-train -dataset FACE -bw 4 -dims 1024
//	generic-train -dataset EEG -binarize -save eeg.ghdc
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	generic "github.com/edge-hdc/generic"
	"github.com/edge-hdc/generic/internal/perf"
	"github.com/edge-hdc/generic/internal/rng"
)

var kinds = map[string]generic.EncodingKind{
	"rp": generic.RP, "level-id": generic.LevelID, "ngram": generic.Ngram,
	"permute": generic.Permute, "generic": generic.Generic,
}

// must unwraps (value, error) results from the trained-pipeline API.
func must[T any](v T, err error) T {
	if err != nil {
		fmt.Fprintln(os.Stderr, "generic-train:", err)
		os.Exit(1)
	}
	return v
}

func main() {
	var (
		name    = flag.String("dataset", "EEG", "benchmark ("+strings.Join(generic.Datasets(), ",")+")")
		kind    = flag.String("encoding", "generic", "encoding (rp,level-id,ngram,permute,generic)")
		d       = flag.Int("d", 4096, "hypervector dimensionality")
		epochs  = flag.Int("epochs", 20, "retraining epochs")
		trainer = flag.String("trainer", "", "training strategy ("+strings.Join(generic.Trainers(), ",")+"; empty = perceptron)")
		lr      = flag.Float64("lr", 0, "lehdc: initial learning rate (0 = default 0.5)")
		lrDecay = flag.Float64("lr-decay", 0, "lehdc: per-epoch learning-rate decay (0 = default 0.95)")
		batch   = flag.Int("batch", 0, "lehdc: mini-batch size (0 = default 16)")
		seed    = flag.Uint64("seed", 0, "random seed (0 = derive one from the clock; the choice is printed so any run can be replayed)")
		bw      = flag.Int("bw", 0, "quantize the trained model to this bit-width (0 = keep 16)")
		dims    = flag.Int("dims", 0, "also evaluate with dimension reduction to this many dims")
		binar   = flag.Bool("binarize", false, "binarize the trained model for packed Hamming inference (-save then emits a binarized model file)")
		save    = flag.String("save", "", "write the trained pipeline to this file")
		load    = flag.String("load", "", "skip training; load a pipeline from this file and evaluate")
		csvIn   = flag.String("csv", "", "train on a labelled CSV file instead of a named benchmark")
		workers = flag.Int("workers", 0, "worker count for batch encode/train/evaluate (0 = all cores, 1 = serial; results are identical)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile at exit to this file")
		traceF  = flag.String("trace", "", "enable span tracing and write Chrome trace-event JSON to this file")
	)
	flag.Parse()
	profiles := must(perf.StartProfiles(*cpuProf, *memProf, *traceF))
	defer func() {
		if err := profiles.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "generic-train:", err)
		}
	}()
	*seed = chooseSeed(*seed)
	fmt.Printf("seed: %d (rerun with -seed %d to reproduce)\n", *seed, *seed)

	if *load != "" {
		ds, err := generic.LoadDataset(*name, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "generic-train:", err)
			os.Exit(1)
		}
		p, err := generic.LoadPipelineFile(*load)
		if err != nil {
			fmt.Fprintln(os.Stderr, "generic-train:", err)
			os.Exit(1)
		}
		trainedBy := p.Trainer()
		if trainedBy == "" {
			trainedBy = "unknown"
		}
		fmt.Printf("loaded pipeline from %s (D=%d, %d classes, %d-bit, trainer %s, %s mode)\n",
			*load, p.Model().D(), p.Model().Classes(), p.Model().BW(), trainedBy, p.Mode())
		fmt.Printf("test accuracy: %.2f%%\n", 100*must(p.Accuracy(ds.TestX, ds.TestY, generic.WithWorkers(*workers))))
		return
	}

	k, ok := kinds[strings.ToLower(*kind)]
	if !ok {
		fmt.Fprintf(os.Stderr, "generic-train: unknown encoding %q\n", *kind)
		os.Exit(1)
	}
	var ds *generic.Dataset
	var err error
	if *csvIn != "" {
		ds, err = generic.LoadCSV(*csvIn, generic.CSVOptions{Seed: *seed})
	} else {
		ds, err = generic.LoadDataset(*name, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "generic-train:", err)
		os.Exit(1)
	}
	enc, err := generic.EncoderForDataset(k, ds, *d, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "generic-train:", err)
		os.Exit(1)
	}

	fmt.Printf("dataset %s: %d train / %d test, %d features, %d classes (%s)\n",
		ds.Name, ds.TrainLen(), ds.TestLen(), ds.Features, ds.Classes, ds.Kind)
	p := generic.NewPipeline(enc, ds.Classes, generic.WithTrainer(*trainer))
	start := time.Now()
	res, err := p.Fit(ds.TrainX, ds.TrainY, generic.TrainOptions{
		Epochs: *epochs, Seed: *seed, Workers: *workers,
		LR: *lr, LRDecay: *lrDecay, BatchSize: *batch,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "generic-train:", err)
		os.Exit(1)
	}
	fmt.Printf("trained %s/%s D=%d in %.1fs (%s, %d epochs, %d final updates, final loss %.4f)\n",
		*kind, ds.Name, *d, time.Since(start).Seconds(), res.Trainer, res.EpochsRun, res.FinalUpdates, res.FinalLoss)
	fmt.Printf("train accuracy: %.2f%%\n", 100*must(p.Accuracy(ds.TrainX, ds.TrainY, generic.WithWorkers(*workers))))
	fmt.Printf("test accuracy:  %.2f%%\n", 100*must(p.Accuracy(ds.TestX, ds.TestY, generic.WithWorkers(*workers))))

	if *bw > 0 {
		// Post-training quantization (vs training-time TrainOptions.BW) so
		// the full-precision accuracy above and the narrowed accuracy here
		// come from the same trained counters. It runs right after Fit,
		// before -binarize and with no fault controller, so narrowing the
		// model in place is the whole transition.
		p.Model().Quantize(*bw)
		fmt.Printf("test accuracy @ %d-bit model: %.2f%%\n", *bw, 100*must(p.Accuracy(ds.TestX, ds.TestY, generic.WithWorkers(*workers))))
	}
	if *dims > 0 {
		correct := 0
		for i, x := range ds.TestX {
			if must(p.Predict(x, generic.WithDims(*dims))) == ds.TestY[i] {
				correct++
			}
		}
		fmt.Printf("test accuracy @ %d dims: %.2f%%\n", *dims,
			100*float64(correct)/float64(ds.TestLen()))
	}
	if *binar {
		if err := p.Binarize(); err != nil {
			fmt.Fprintln(os.Stderr, "generic-train:", err)
			os.Exit(1)
		}
		fmt.Printf("test accuracy @ binary (Hamming): %.2f%%\n",
			100*must(p.Accuracy(ds.TestX, ds.TestY, generic.WithWorkers(*workers))))
	}
	if *save != "" {
		if err := p.SaveFile(*save); err != nil {
			fmt.Fprintln(os.Stderr, "generic-train:", err)
			os.Exit(1)
		}
		fmt.Printf("saved pipeline to %s\n", *save)
	}
}

// chooseSeed resolves the -seed flag: an explicit nonzero value is used as
// given; 0 derives a fresh seed from the clock, mixed through
// rng.SplitMix64 so close-together launches do not land on correlated
// xoshiro streams. The caller prints the result — the clock never feeds the
// model directly, so every run stays replayable.
func chooseSeed(explicit uint64) uint64 {
	if explicit != 0 {
		return explicit
	}
	z := uint64(time.Now().UnixNano())
	return rng.SplitMix64(&z)
}
