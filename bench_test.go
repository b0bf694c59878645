package generic_test

// One benchmark per table/figure of the paper's evaluation (DESIGN.md §4):
// each bench regenerates its experiment end to end under the Quick
// configuration, so `go test -bench=.` exercises every harness. Reported
// ns/op is the harness runtime, not a claim about the modeled hardware —
// the modeled energy/latency numbers are what the experiments print (see
// cmd/generic-bench and EXPERIMENTS.md).

import (
	"testing"

	generic "github.com/edge-hdc/generic"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := generic.QuickExperimentConfig()
	for i := 0; i < b.N; i++ {
		if _, err := generic.RunExperiment(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkFigure3(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFigure5(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFigure6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFigure7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFigure8(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFigure9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "fig10") }

// Ablation benches for the design choices DESIGN.md calls out.
func BenchmarkAblationWindow(b *testing.B) { benchExperiment(b, "ablation-n") }
func BenchmarkAblationID(b *testing.B)     { benchExperiment(b, "ablation-id") }
func BenchmarkAblationBins(b *testing.B)   { benchExperiment(b, "ablation-bins") }

// Micro-benches on the public API: the hot paths a downstream user hits.

func quickEncoder(b *testing.B, kind generic.EncodingKind) generic.Encoder {
	b.Helper()
	enc, err := generic.NewEncoder(kind, generic.EncoderConfig{
		D: 4096, Features: 128, Lo: 0, Hi: 1, UseID: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return enc
}

func benchInput() []float64 {
	x := make([]float64, 128)
	for i := range x {
		x[i] = float64(i%17) / 17
	}
	return x
}

func BenchmarkEncodeGeneric4K(b *testing.B) {
	enc := quickEncoder(b, generic.Generic)
	x := benchInput()
	out := make(generic.Hypervector, enc.D())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Encode(x, out)
	}
}

func BenchmarkEncodeLevelID4K(b *testing.B) {
	enc := quickEncoder(b, generic.LevelID)
	x := benchInput()
	out := make(generic.Hypervector, enc.D())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Encode(x, out)
	}
}

func BenchmarkPipelinePredict(b *testing.B) {
	ds, err := generic.LoadDataset("EEG", 1)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := generic.EncoderForDataset(generic.Generic, ds, 2048, 1)
	if err != nil {
		b.Fatal(err)
	}
	p := generic.NewPipeline(enc, ds.Classes)
	if _, err := p.Fit(ds.TrainX[:200], ds.TrainY[:200], generic.TrainOptions{Epochs: 2, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Predict(ds.TestX[i%ds.TestLen()])
	}
}

func BenchmarkAcceleratorInfer(b *testing.B) {
	ds, err := generic.LoadDataset("EEG", 1)
	if err != nil {
		b.Fatal(err)
	}
	spec := generic.Spec{
		D: 2048, Features: ds.Features, N: 3, Classes: ds.Classes,
		BW: 16, UseID: ds.UseID,
	}
	acc, err := generic.NewAccelerator(spec, 1, ds.Lo, ds.Hi)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Infer(ds.TestX[i%ds.TestLen()])
	}
}

// Serial-versus-parallel benches for the batch-first paths. Each pair runs
// the identical workload with Workers: 1 and Workers: 0 (= GOMAXPROCS), so
// `go test -bench 'Serial|Parallel' -cpu 1,4` shows how the chunked worker
// pool scales. Results are bit-identical either way; only wall-clock moves.

func benchBatchSetup(b *testing.B) (generic.Encoder, [][]float64, []int) {
	b.Helper()
	ds, err := generic.LoadDataset("EEG", 1)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := generic.EncoderForDataset(generic.Generic, ds, 2048, 1)
	if err != nil {
		b.Fatal(err)
	}
	n := 400
	if ds.TrainLen() < n {
		n = ds.TrainLen()
	}
	return enc, ds.TrainX[:n], ds.TrainY[:n]
}

func benchEncodeBatch(b *testing.B, workers int) {
	enc, X, _ := benchBatchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		generic.EncodeWorkers(enc, X, workers)
	}
}

func BenchmarkEncodeBatchSerial(b *testing.B)   { benchEncodeBatch(b, 1) }
func BenchmarkEncodeBatchParallel(b *testing.B) { benchEncodeBatch(b, 0) }

func benchFit(b *testing.B, workers int) {
	enc, X, Y := benchBatchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := generic.NewPipeline(enc, 6)
		if _, err := p.Fit(X, Y, generic.TrainOptions{Epochs: 3, Seed: 1, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitSerial(b *testing.B)   { benchFit(b, 1) }
func BenchmarkFitParallel(b *testing.B) { benchFit(b, 0) }

func benchEvaluate(b *testing.B, workers int) {
	enc, X, Y := benchBatchSetup(b)
	p := generic.NewPipeline(enc, 6)
	if _, err := p.Fit(X, Y, generic.TrainOptions{Epochs: 2, Seed: 1, Workers: workers}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Accuracy(X, Y, generic.WithWorkers(workers))
	}
}

func BenchmarkEvaluateSerial(b *testing.B)   { benchEvaluate(b, 1) }
func BenchmarkEvaluateParallel(b *testing.B) { benchEvaluate(b, 0) }

func benchCluster(b *testing.B, workers int) {
	cs, err := generic.LoadClusterSet("Hepta", 1)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := generic.NewEncoder(generic.Generic, generic.EncoderConfig{
		D: 1024, Features: cs.Features, Bins: 32, Lo: cs.Lo, Hi: cs.Hi,
		N: cs.Features, UseID: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(generic.Cluster(enc, cs.X, cs.K, 5, generic.WithWorkers(workers)))
	}
}

func BenchmarkClusterSerial(b *testing.B)   { benchCluster(b, 1) }
func BenchmarkClusterParallel(b *testing.B) { benchCluster(b, 0) }

func BenchmarkHDCClusterHepta(b *testing.B) {
	cs, err := generic.LoadClusterSet("Hepta", 1)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := generic.NewEncoder(generic.Generic, generic.EncoderConfig{
		D: 1024, Features: cs.Features, Bins: 32, Lo: cs.Lo, Hi: cs.Hi,
		N: cs.Features, UseID: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(generic.Cluster(enc, cs.X, cs.K, 5))
	}
}
