package hdproc

import (
	"testing"

	"github.com/edge-hdc/generic/internal/approx"
	"github.com/edge-hdc/generic/internal/classifier"
	"github.com/edge-hdc/generic/internal/dataset"
	"github.com/edge-hdc/generic/internal/encoding"
	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/metrics"
	"github.com/edge-hdc/generic/internal/rng"
)

// scoreApproxRef mirrors the hardware scorer for the agreement test.
func scoreApproxRef(dot, norm2 int64) int64 { return approx.ScoreApprox(dot, norm2) }

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{D: 100}); err == nil {
		t.Error("bad D accepted")
	}
	p, err := New(Config{D: 512, Lo: 0, Hi: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.vcycles() != 2 {
		t.Errorf("vcycles = %d for D=512, want 2", p.vcycles())
	}
}

func TestEncodeProgramMatchesEncoder(t *testing.T) {
	// The processor's encode program must reproduce internal/encoding's
	// GENERIC encoder bit-for-bit (same seed → same material → same math).
	const d, features, n = 1024, 24, 3
	for _, useID := range []bool{true, false} {
		cfg := encoding.Config{
			D: d, Features: features, Bins: 64, Lo: 0, Hi: 1,
			N: n, UseID: useID, Seed: 9,
		}
		enc := encoding.MustNew(encoding.Generic, cfg)
		proc, err := New(Config{D: d, Bins: 64, Lo: 0, Hi: 1, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(3)
		x := make([]float64, features)
		for i := range x {
			x[i] = r.Float64()
		}
		want := hdc.NewVec(d)
		enc.Encode(x, want)

		prog, err := GenericEncodeProgram(EncodeParams{Features: features, N: n, UseID: useID})
		if err != nil {
			t.Fatal(err)
		}
		proc.SetInput(x)
		if err := proc.Run(prog); err != nil {
			t.Fatal(err)
		}
		got := proc.Encoding()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("useID=%v: dim %d: processor %d != encoder %d", useID, i, got[i], want[i])
			}
		}
	}
}

func TestInferMatchesClassifier(t *testing.T) {
	ds := dataset.MustLoad("EEG", 1)
	const d = 2048
	cfg := encoding.Config{
		D: d, Features: ds.Features, Bins: 64, Lo: ds.Lo, Hi: ds.Hi,
		N: 3, UseID: ds.UseID, Seed: 9,
	}
	enc := encoding.MustNew(encoding.Generic, cfg)
	trainH := encoding.EncodeAll(enc, ds.TrainX)
	m, _, err := classifier.Train(trainH, ds.TrainY, ds.Classes, classifier.Options{Epochs: 10, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}

	proc, err := New(Config{D: d, Bins: 64, Lo: ds.Lo, Hi: ds.Hi, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	classes := make([]hdc.Vec, m.Classes())
	norms := make([]int64, m.Classes())
	for c := 0; c < m.Classes(); c++ {
		classes[c] = m.Class(c)
		norms[c] = m.Norm2(c)
	}
	if err := proc.LoadClasses(classes, norms); err != nil {
		t.Fatal(err)
	}
	params := EncodeParams{Features: ds.Features, N: 3, UseID: ds.UseID, Classes: ds.Classes}
	preds := make([]int, 100)
	for i := 0; i < 100; i++ {
		pred, err := proc.Infer(ds.TestX[i], params)
		if err != nil {
			t.Fatal(err)
		}
		preds[i] = pred
	}
	if acc := metrics.MustAccuracy(preds, ds.TestY[:100]); acc < 0.85 {
		t.Errorf("processor inference accuracy = %.3f, want ≥ 0.85", acc)
	}
	// Against a reference using the SAME encodings and the SAME integer
	// scorer, agreement must be exact — the processor and the ASIC share
	// every bit of the decision math.
	for i := 0; i < 100; i++ {
		h := hdc.NewVec(d)
		enc.Encode(ds.TestX[i], h)
		best, bestScore := -1, int64(-1)<<62
		for c := 0; c < m.Classes(); c++ {
			if s := scoreApproxRef(h.Dot(m.Class(c)), m.Norm2(c)); s > bestScore {
				best, bestScore = c, s
			}
		}
		if preds[i] != best {
			t.Fatalf("sample %d: processor %d != integer-scorer reference %d", i, preds[i], best)
		}
	}
}

func TestProcessorSlowerThanASIC(t *testing.T) {
	// The architectural point of Figure 9: instruction fetch and lane
	// streaming make the programmable processor slower than GENERIC's
	// fixed-function pipeline on the same workload and clock.
	proc, err := New(Config{D: 4096, Bins: 64, Lo: 0, Hi: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	classes := make([]hdc.Vec, 10)
	norms := make([]int64, 10)
	for c := range classes {
		classes[c] = hdc.NewVec(4096)
		norms[c] = 1
	}
	if err := proc.LoadClasses(classes, norms); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 128)
	if _, err := proc.Infer(x, EncodeParams{Features: 128, N: 3, UseID: true, Classes: 10}); err != nil {
		t.Fatal(err)
	}
	procSec := proc.Stats().Seconds()
	// GENERIC's cycle model for the same shape: ≈ (D/16)·d cycles.
	asicSec := float64(4096/16*132+128+20) / ClockHz
	if procSec <= asicSec {
		t.Errorf("processor (%.1f µs) should be slower than the ASIC pipeline (%.1f µs)",
			procSec*1e6, asicSec*1e6)
	}
	if procSec > 100*asicSec {
		t.Errorf("processor %.1f µs implausibly slow vs ASIC %.1f µs", procSec*1e6, asicSec*1e6)
	}
}

func TestProgramErrors(t *testing.T) {
	proc, _ := New(Config{D: 512, Lo: 0, Hi: 1, Seed: 1})
	proc.SetInput(make([]float64, 4))
	cases := []Instr{
		{Op: OpQNTZ, Rd: 0, Imm: 99},       // feature out of range
		{Op: OpDOTC, Rd: 0, Ra: 0, Imm: 0}, // no classes loaded
		{Op: OpSCOR, Rd: 0, Ra: 0, Imm: 0}, // no classes loaded
		{Op: Op(99)},                       // unknown opcode
	}
	for i, in := range cases {
		if err := proc.Run(Program{in}); err == nil {
			t.Errorf("case %d: invalid instruction accepted", i)
		}
	}
	if _, err := GenericEncodeProgram(EncodeParams{Features: 2, N: 3}); err == nil {
		t.Error("bad window accepted")
	}
}

func TestStatsAccounting(t *testing.T) {
	proc, _ := New(Config{D: 512, Bins: 64, Lo: 0, Hi: 1, Seed: 1})
	proc.SetInput(make([]float64, 8))
	prog, _ := GenericEncodeProgram(EncodeParams{Features: 8, N: 3, UseID: true})
	if err := proc.Run(prog); err != nil {
		t.Fatal(err)
	}
	st := proc.Stats()
	if st.Instructions != int64(len(prog)) {
		t.Errorf("instructions = %d, want %d", st.Instructions, len(prog))
	}
	if st.Cycles <= st.Instructions {
		t.Error("cycles must exceed instruction count (vector streaming)")
	}
	if st.VectorCycles == 0 || st.MemReads == 0 {
		t.Errorf("missing vector/memory accounting: %+v", st)
	}
	proc.ResetStats()
	if proc.Stats().Cycles != 0 {
		t.Error("ResetStats did not clear")
	}
}

func BenchmarkProcessorInfer(b *testing.B) {
	proc, err := New(Config{D: 2048, Bins: 64, Lo: 0, Hi: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	classes := make([]hdc.Vec, 4)
	norms := make([]int64, 4)
	for c := range classes {
		classes[c] = hdc.NewVec(2048)
		norms[c] = 1
	}
	proc.LoadClasses(classes, norms)
	x := make([]float64, 64)
	params := EncodeParams{Features: 64, N: 3, UseID: true, Classes: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proc.Infer(x, params); err != nil {
			b.Fatal(err)
		}
	}
}
