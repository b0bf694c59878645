// Quickstart: encode → train → predict with the GENERIC HDC pipeline.
//
// The task is a tiny positional one — decide which half of a 32-sample
// window carries a pulse — small enough to read in one sitting but enough
// to show the whole public API surface.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	generic "github.com/edge-hdc/generic"
)

func makeData(n int) (X [][]float64, Y []int) {
	for i := 0; i < n; i++ {
		x := make([]float64, 32)
		class := i % 2
		start := 4
		if class == 1 {
			start = 20
		}
		for j := 0; j < 8; j++ {
			x[start+j] = 0.8 + 0.1*float64((i+j)%3)
		}
		// A little background texture.
		for j := range x {
			x[j] += 0.05 * float64((i*13+j*7)%5) / 5
		}
		X = append(X, x)
		Y = append(Y, class)
	}
	return X, Y
}

func main() {
	trainX, trainY := makeData(200)
	testX, testY := makeData(61) // different phase → unseen samples

	// 1. Build the GENERIC encoder (Eq. 1 of the paper): windows of n=3,
	//    64 quantization levels, per-window id binding for global order.
	enc, err := generic.NewEncoder(generic.Generic, generic.EncoderConfig{
		D:        2048, // hypervector dimensionality
		Features: 32,
		Lo:       0, Hi: 1, // quantization range
		UseID: true,
		Seed:  42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Train: one-shot class bundling plus retraining epochs.
	p := generic.NewPipeline(enc, 2)
	if _, err := p.Fit(trainX, trainY, generic.TrainOptions{Epochs: 10, Seed: 42}); err != nil {
		log.Fatal(err)
	}

	// 3. Predict. The trained-pipeline API returns errors (a pipeline used
	//    before Fit reports generic.ErrNotTrained).
	acc, err := p.Accuracy(testX, testY)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("test accuracy: %.1f%%\n", 100*acc)

	// 4. Edge deployments can trade accuracy for energy on demand: score
	//    only a prefix of the dimensions (the accelerator's on-demand
	//    dimension reduction) without retraining anything.
	accDims, err := p.Accuracy(testX, testY, generic.WithDims(1024))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accuracy @ 1024 of 2048 dims: %.1f%%\n", 100*accDims)

	// 5. For the cheapest inference, binarize: classes collapse to packed
	//    sign bits and prediction becomes XOR + popcount. Binarize switches
	//    the pipeline's default mode; WithMode selects per call when both
	//    representations matter.
	if err := p.Binarize(); err != nil {
		log.Fatal(err)
	}
	accBin, err := p.Accuracy(testX, testY) // binary mode is now the default
	if err != nil {
		log.Fatal(err)
	}
	accExact, err := p.Accuracy(testX, testY, generic.WithMode(generic.Exact))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accuracy binarized: %.1f%% (exact counters still available: %.1f%%)\n",
		100*accBin, 100*accExact)
}
