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
	"errors"
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

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "generic-train:", err)
		os.Exit(1)
	}
}

// run is the whole command. It returns every error instead of exiting, so
// the deferred profiles.Stop writes the requested profiles on error paths
// too.
func run(args []string) (err error) {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		name    = fs.String("dataset", "EEG", "benchmark ("+strings.Join(generic.Datasets(), ",")+")")
		kind    = fs.String("encoding", "generic", "encoding (rp,level-id,ngram,permute,generic)")
		d       = fs.Int("d", 4096, "hypervector dimensionality")
		epochs  = fs.Int("epochs", 20, "retraining epochs")
		trainer = fs.String("trainer", "", "training strategy ("+strings.Join(generic.Trainers(), ",")+"; empty = perceptron)")
		lr      = fs.Float64("lr", 0, "lehdc: initial learning rate (0 = default 0.5)")
		lrDecay = fs.Float64("lr-decay", 0, "lehdc: per-epoch learning-rate decay (0 = default 0.95)")
		batch   = fs.Int("batch", 0, "lehdc: mini-batch size (0 = default 16)")
		seed    = fs.Uint64("seed", 0, "random seed (0 = derive one from the clock; the choice is printed so any run can be replayed)")
		bw      = fs.Int("bw", 0, "quantize the trained model to this bit-width, 1-16 (0 = keep 16)")
		dims    = fs.Int("dims", 0, "also evaluate with dimension reduction to this many dims")
		binar   = fs.Bool("binarize", false, "binarize the trained model for packed Hamming inference (-save then emits a binarized model file)")
		save    = fs.String("save", "", "write the trained pipeline to this file")
		load    = fs.String("load", "", "skip training; load a pipeline from this file and evaluate")
		csvIn   = fs.String("csv", "", "train on a labelled CSV file instead of a named benchmark")
		workers = fs.Int("workers", 0, "worker count for batch encode/train/evaluate (0 = all cores, 1 = serial; results are identical)")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a heap profile at exit to this file")
		traceF  = fs.String("trace", "", "enable span tracing and write Chrome trace-event JSON to this file")
	)
	fs.Parse(args)
	// Reject what training or Quantize would refuse before any data loads.
	if *epochs < 0 {
		return fmt.Errorf("-epochs %d must not be negative", *epochs)
	}
	if *bw < 0 || *bw > 16 {
		return fmt.Errorf("-bw %d out of range [0,16]", *bw)
	}
	profiles, err := perf.StartProfiles(*cpuProf, *memProf, *traceF)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, profiles.Stop()) }()
	*seed = chooseSeed(*seed)
	fmt.Printf("seed: %d (rerun with -seed %d to reproduce)\n", *seed, *seed)
	// printAccuracy prints p's accuracy on (X, Y) under opts as a percentage
	// after label.
	printAccuracy := func(label string, p *generic.Pipeline, X [][]float64, Y []int, opts ...generic.Option) error {
		acc, err := p.Accuracy(X, Y, append(opts, generic.WithWorkers(*workers))...)
		if err == nil {
			fmt.Printf("%s%.2f%%\n", label, 100*acc)
		}
		return err
	}

	if *load != "" {
		ds, err := generic.LoadDataset(*name, *seed)
		if err != nil {
			return err
		}
		p, err := generic.LoadPipelineFile(*load)
		if err != nil {
			return err
		}
		trainedBy := p.Trainer()
		if trainedBy == "" {
			trainedBy = "unknown"
		}
		fmt.Printf("loaded pipeline from %s (D=%d, %d classes, %d-bit, trainer %s, %s mode)\n",
			*load, p.Model().D(), p.Model().Classes(), p.Model().BW(), trainedBy, p.Mode())
		return printAccuracy("test accuracy: ", p, ds.TestX, ds.TestY)
	}

	k, ok := kinds[strings.ToLower(*kind)]
	if !ok {
		return fmt.Errorf("unknown encoding %q", *kind)
	}
	var ds *generic.Dataset
	if *csvIn != "" {
		ds, err = generic.LoadCSV(*csvIn, generic.CSVOptions{Seed: *seed})
	} else {
		ds, err = generic.LoadDataset(*name, *seed)
	}
	if err != nil {
		return err
	}
	enc, err := generic.EncoderForDataset(k, ds, *d, *seed)
	if err != nil {
		return err
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
		return err
	}
	fmt.Printf("trained %s/%s D=%d in %.1fs (%s, %d epochs, %d final updates, final loss %.4f)\n",
		*kind, ds.Name, *d, time.Since(start).Seconds(), res.Trainer, res.EpochsRun, res.FinalUpdates, res.FinalLoss)
	if err := printAccuracy("train accuracy: ", p, ds.TrainX, ds.TrainY); err != nil {
		return err
	}
	if err := printAccuracy("test accuracy:  ", p, ds.TestX, ds.TestY); err != nil {
		return err
	}

	if *bw > 0 {
		// Post-training quantization (vs training-time TrainOptions.BW) so
		// the full-precision accuracy above and the narrowed accuracy here
		// come from the same trained counters. It runs right after Fit,
		// before -binarize and with no fault controller, so narrowing the
		// model in place is the whole transition.
		p.Model().Quantize(*bw)
		if err := printAccuracy(fmt.Sprintf("test accuracy @ %d-bit model: ", *bw), p, ds.TestX, ds.TestY); err != nil {
			return err
		}
	}
	if *dims > 0 {
		if err := printAccuracy(fmt.Sprintf("test accuracy @ %d dims: ", *dims), p, ds.TestX, ds.TestY, generic.WithDims(*dims)); err != nil {
			return err
		}
	}
	if *binar {
		if err := p.Binarize(); err != nil {
			return err
		}
		if err := printAccuracy("test accuracy @ binary (Hamming): ", p, ds.TestX, ds.TestY); err != nil {
			return err
		}
	}
	if *save != "" {
		if err := p.SaveFile(*save); err != nil {
			return err
		}
		fmt.Printf("saved pipeline to %s\n", *save)
	}
	return nil
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
