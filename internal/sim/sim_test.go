package sim

import (
	"math"
	"testing"

	"github.com/edge-hdc/generic/internal/classifier"
	"github.com/edge-hdc/generic/internal/cluster"
	"github.com/edge-hdc/generic/internal/dataset"
	"github.com/edge-hdc/generic/internal/encoding"
	"github.com/edge-hdc/generic/internal/metrics"
)

func eegSpec() Spec {
	ds := dataset.MustLoad("EEG", 1)
	return Spec{
		D: 2048, Features: ds.Features, N: 3, Classes: ds.Classes,
		BW: 16, UseID: ds.UseID, Mode: Train,
	}
}

func TestSpecValidate(t *testing.T) {
	good := Spec{D: 4096, Features: 128, N: 3, Classes: 10, BW: 16}
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	bad := []Spec{
		{D: 100, Features: 128, N: 3, Classes: 10},          // D not multiple of 128
		{D: 4096, Features: 0, N: 3, Classes: 10},           // no features
		{D: 4096, Features: 2000, N: 3, Classes: 10},        // feature mem overflow
		{D: 4096, Features: 128, N: 200, Classes: 10},       // window > features
		{D: 4096, Features: 128, N: 3, Classes: 0},          // no classes
		{D: 4096, Features: 128, N: 3, Classes: 33},         // too many classes
		{D: 8192, Features: 128, N: 3, Classes: 32},         // capacity: 32·8K > 128K
		{D: 4096, Features: 128, N: 3, Classes: 10, BW: 17}, // bad bw
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

func TestCapacityTradeoff(t *testing.T) {
	// The paper's example: 4K dims for 32 classes, or 8K dims for 16.
	if err := (Spec{D: 4096, Features: 10, N: 3, Classes: 32}).Validate(); err != nil {
		t.Errorf("4K×32 should fit: %v", err)
	}
	if err := (Spec{D: 8192, Features: 10, N: 3, Classes: 16}).Validate(); err != nil {
		t.Errorf("8K×16 should fit: %v", err)
	}
}

func TestFillAndBanks(t *testing.T) {
	s := Spec{D: 4096, Features: 128, N: 3, Classes: 32}
	if f := s.Fill(); math.Abs(f-1) > 1e-12 {
		t.Errorf("full occupancy fill = %v", f)
	}
	if b := s.ActiveBankFrac(); b != 1 {
		t.Errorf("full occupancy banks = %v", b)
	}
	// EEG-like: 2 classes × 4K of 128K = 6.25% → 1 of 4 banks.
	s2 := Spec{D: 4096, Features: 128, N: 3, Classes: 2}
	if b := s2.ActiveBankFrac(); b != 0.25 {
		t.Errorf("small app banks = %v, want 0.25", b)
	}
}

func TestInferMatchesSoftwareArgmax(t *testing.T) {
	// The accelerator's fixed-point pipeline (Mitchell divider) must agree
	// with the floating-point reference on ≥99% of predictions.
	ds := dataset.MustLoad("EEG", 1)
	spec := eegSpec()
	acc := MustNewWithRange(spec, 7, ds.Lo, ds.Hi)

	enc := acc.Encoder()
	trainH := encoding.EncodeAll(enc, ds.TrainX)
	m, _, err := classifier.Train(trainH, ds.TrainY, ds.Classes, classifier.Options{Epochs: 5, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.LoadModel(m); err != nil {
		t.Fatal(err)
	}

	agree, hwCorrect, swCorrect, total := 0, 0, 0, 0
	testH := encoding.EncodeAll(enc, ds.TestX)
	for i, x := range ds.TestX {
		hw := acc.Infer(x)
		sw, _, _ := m.PredictDimsMargin(testH[i], m.D(), true)
		if hw == sw {
			agree++
		}
		if hw == ds.TestY[i] {
			hwCorrect++
		}
		if sw == ds.TestY[i] {
			swCorrect++
		}
		total++
	}
	// The corrected-Mitchell divider may flip genuinely near-tied scores
	// (these are the uncertain samples), so exact agreement is ≥95%; the
	// paper's claim — no accuracy loss from the approximate divider — must
	// hold within 2%.
	if frac := float64(agree) / float64(total); frac < 0.95 {
		t.Errorf("hardware/software argmax agreement = %.4f, want ≥ 0.95", frac)
	}
	hwAcc := float64(hwCorrect) / float64(total)
	swAcc := float64(swCorrect) / float64(total)
	if math.Abs(hwAcc-swAcc) > 0.02 {
		t.Errorf("hardware accuracy %.4f deviates from software %.4f by > 2%%", hwAcc, swAcc)
	}
}

func TestTrainOnAcceleratorReachesAccuracy(t *testing.T) {
	ds := dataset.MustLoad("EEG", 1)
	acc := MustNewWithRange(eegSpec(), 7, ds.Lo, ds.Hi)
	acc.Train(ds.TrainX, ds.TrainY, 10)
	preds := acc.InferAll(ds.TestX)
	if a := metrics.MustAccuracy(preds, ds.TestY); a < 0.72 {
		t.Errorf("on-accelerator training accuracy = %.3f, want > 0.72", a)
	}
}

func TestCycleModelInference(t *testing.T) {
	spec := Spec{D: 4096, Features: 128, N: 3, Classes: 10, BW: 16, UseID: true}
	acc := MustNew(spec, 1)
	x := make([]float64, 128)
	acc.Infer(x)
	st := acc.Stats()
	// Expected: load (d) + passes·(max(d,nC)+fill) + divider/argmax (2·nC).
	passes := int64(4096 / M)
	want := int64(128) + passes*(128+PipelineFill) + 20
	if st.Cycles != want {
		t.Errorf("inference cycles = %d, want %d", st.Cycles, want)
	}
	if st.ClassMemReads != int64(10*4096) {
		t.Errorf("class reads = %d, want %d", st.ClassMemReads, 10*4096)
	}
	if st.LevelMemReads != passes*128 {
		t.Errorf("level reads = %d, want %d", st.LevelMemReads, passes*128)
	}
	if st.Inferences != 1 || st.Encodings != 1 {
		t.Errorf("op counters wrong: %+v", st)
	}
}

func TestInferenceLatencyMicroseconds(t *testing.T) {
	// The paper's clustering latency is ~9.6 µs/input at D=4K; a
	// same-order classification latency must come out of the cycle model
	// (few-to-tens of µs for d≈128).
	spec := Spec{D: 4096, Features: 128, N: 3, Classes: 10, BW: 16, UseID: true}
	acc := MustNew(spec, 1)
	acc.Infer(make([]float64, 128))
	us := acc.Stats().Seconds() * 1e6
	if us < 10 || us > 200 {
		t.Errorf("inference latency = %.2f µs, outside the plausible envelope", us)
	}
}

func TestStatsAccumulateAndReset(t *testing.T) {
	spec := Spec{D: 1024, Features: 16, N: 3, Classes: 4, BW: 16}
	acc := MustNew(spec, 1)
	x := make([]float64, 16)
	acc.Infer(x)
	c1 := acc.Stats().Cycles
	acc.Infer(x)
	if acc.Stats().Cycles != 2*c1 {
		t.Errorf("cycles did not accumulate linearly: %d vs 2×%d", acc.Stats().Cycles, c1)
	}
	acc.ResetStats()
	if acc.Stats().Cycles != 0 {
		t.Error("ResetStats did not clear")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Cycles: 10, ClassMemReads: 5, Inferences: 1}
	b := Stats{Cycles: 3, ClassMemWrites: 7, Updates: 2}
	a.Add(b)
	if a.Cycles != 13 || a.ClassMemReads != 5 || a.ClassMemWrites != 7 || a.Updates != 2 {
		t.Errorf("Stats.Add wrong: %+v", a)
	}
}

func TestRetrainCycleCost(t *testing.T) {
	// A misprediction must cost two class updates of 3·D/m cycles each.
	spec := Spec{D: 1024, Features: 16, N: 3, Classes: 2, BW: 16}
	acc := MustNew(spec, 1)
	X := [][]float64{make([]float64, 16)}
	Y := []int{0}
	acc.TrainInit(X, Y)
	acc.ResetStats()
	// Force a misprediction by labeling the same input differently.
	n := acc.RetrainEpoch(X, []int{1})
	if n != 1 {
		t.Fatalf("expected 1 update, got %d", n)
	}
	if acc.Stats().Updates != 2 {
		t.Errorf("updates = %d, want 2 (subtract + add)", acc.Stats().Updates)
	}
}

func TestLoadModelQuantizes(t *testing.T) {
	ds := dataset.MustLoad("EEG", 1)
	spec := eegSpec()
	spec.BW = 4
	acc := MustNewWithRange(spec, 7, ds.Lo, ds.Hi)
	trainH := encoding.EncodeAll(acc.Encoder(), ds.TrainX[:100])
	m, _, err := classifier.Train(trainH, ds.TrainY[:100], ds.Classes, classifier.Options{Epochs: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.LoadModel(m); err != nil {
		t.Fatal(err)
	}
	if acc.Model().BW() != 4 {
		t.Errorf("loaded model bw = %d, want 4", acc.Model().BW())
	}
	for c := 0; c < acc.Model().Classes(); c++ {
		for _, v := range acc.Model().Class(c) {
			if v > 7 || v < -8 {
				t.Fatalf("class value %d exceeds 4-bit range after load", v)
			}
		}
	}
	// The original model must be untouched (LoadModel clones).
	if m.BW() != 16 {
		t.Error("LoadModel mutated the caller's model")
	}
}

func TestLoadModelRejectsMismatch(t *testing.T) {
	acc := MustNew(Spec{D: 1024, Features: 16, N: 3, Classes: 2}, 1)
	m := classifier.NewModel(2048, 2, 16)
	if err := acc.LoadModel(m); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestClusterOnAccelerator(t *testing.T) {
	cs := dataset.MustLoadCluster("Hepta", 1)
	spec := Spec{D: 2048, Features: cs.Features, N: cs.Features, Classes: cs.K, BW: 16, UseID: true, Mode: Cluster}
	acc := MustNewWithRange(spec, 11, cs.Lo, cs.Hi)
	assign := acc.ClusterFit(cs.X, 10)
	nmi := metrics.NMI(assign, cs.Labels)
	if nmi < 0.6 {
		t.Errorf("accelerator clustering NMI = %.3f on Hepta, want ≥ 0.6", nmi)
	}
	if acc.Stats().Updates == 0 || acc.Stats().Encodings == 0 {
		t.Error("clustering accounted no activity")
	}
}

func TestClusterMatchesSoftwareClustering(t *testing.T) {
	// The accelerator's clustering and the software HDC clustering share
	// the algorithm; with identical encodings their NMI should be close.
	cs := dataset.MustLoadCluster("Tetra", 1)
	spec := Spec{D: 2048, Features: cs.Features, N: cs.Features, Classes: cs.K, BW: 16, UseID: true, Mode: Cluster}
	acc := MustNewWithRange(spec, 11, cs.Lo, cs.Hi)
	hwAssign := acc.ClusterFit(cs.X, 10)
	encoded := encoding.EncodeAll(acc.Encoder(), cs.X)
	swAssign := cluster.HDC(encoded, cs.K, 10, 1)
	hwNMI := metrics.NMI(hwAssign, cs.Labels)
	swNMI := metrics.NMI(swAssign.Assignments, cs.Labels)
	if math.Abs(hwNMI-swNMI) > 0.25 {
		t.Errorf("hardware (%.3f) vs software (%.3f) clustering NMI diverge", hwNMI, swNMI)
	}
}

func TestModeString(t *testing.T) {
	if Inference.String() != "inference" || Train.String() != "train" || Cluster.String() != "cluster" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode string wrong")
	}
}

func BenchmarkAcceleratorInfer(b *testing.B) {
	spec := Spec{D: 4096, Features: 128, N: 3, Classes: 10, BW: 16, UseID: true}
	acc := MustNew(spec, 1)
	x := make([]float64, 128)
	for i := range x {
		x[i] = float64(i) / 128
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Infer(x)
	}
}
