package device

import (
	"testing"

	"github.com/edge-hdc/generic/internal/encoding"
)

func genericParams() HDCParams {
	return HDCParams{
		Kind: encoding.Generic, D: 4096, Features: 128, N: 3, Classes: 26, UseID: true,
	}
}

func TestRunLinearInOps(t *testing.T) {
	ops := Ops{Packed: 1000, Int: 2000, Float: 3000, MemBytes: 4000}
	s1, e1 := CPU.Run(ops)
	s2, e2 := CPU.Run(ops.Scale(10))
	if s2 < s1*9.99 || s2 > s1*10.01 {
		t.Errorf("latency not linear: %g vs 10×%g", s2, s1)
	}
	if e2 < e1*9.99 || e2 > e1*10.01 {
		t.Errorf("energy not linear: %g vs 10×%g", e2, e1)
	}
}

func TestOpsAdd(t *testing.T) {
	a := Ops{Packed: 1, Int: 2, Float: 3, MemBytes: 4}
	a.Add(Ops{Packed: 10, Int: 20, Float: 30, MemBytes: 40})
	if a.Packed != 11 || a.Int != 22 || a.Float != 33 || a.MemBytes != 44 {
		t.Errorf("Add wrong: %+v", a)
	}
}

func TestEncodeOpsPerKind(t *testing.T) {
	p := genericParams()
	for _, k := range encoding.Kinds() {
		p.Kind = k
		o := p.EncodeOps()
		if o.Packed+o.Int+o.Float <= 0 {
			t.Errorf("%v: zero encode ops", k)
		}
	}
	// RP is float-dominated; windowed kinds are packed-dominated.
	p.Kind = encoding.RP
	if rp := p.EncodeOps(); rp.Float == 0 || rp.Packed != 0 {
		t.Error("RP should count float projection ops")
	}
	p.Kind = encoding.Generic
	if g := p.EncodeOps(); g.Packed == 0 {
		t.Error("GENERIC should count packed ops")
	}
}

func TestGenericCostsMoreThanNgram(t *testing.T) {
	// §3.3: GENERIC processes one extra XOR (the id) per window, so it is
	// less efficient than plain ngram on conventional hardware.
	p := genericParams()
	p.Kind = encoding.Generic
	g := p.EncodeOps()
	p.Kind = encoding.Ngram
	p.UseID = false
	n := p.EncodeOps()
	if g.Packed <= n.Packed {
		t.Errorf("GENERIC packed ops %d should exceed ngram %d", g.Packed, n.Packed)
	}
}

func TestEGPUBestConventionalHomeForHDC(t *testing.T) {
	// Figure 3's headline: the eGPU's packing+parallelism make it ≥2
	// orders of magnitude more energy-efficient than the Pi for HDC
	// inference, and faster than both CPU and Pi.
	ops := genericParams().InferOps()
	_, eRPi := RaspberryPi.Run(ops)
	tCPU, eCPU := CPU.Run(ops)
	tEGPU, eEGPU := EGPU.Run(ops)
	if ratio := eRPi / eEGPU; ratio < 50 {
		t.Errorf("RPi/eGPU HDC energy ratio = %.0f, want ≫ 50 (paper: 134)", ratio)
	}
	if eCPU <= eEGPU {
		t.Error("CPU should cost more energy than eGPU for HDC")
	}
	if tEGPU >= tCPU {
		t.Error("eGPU should be faster than CPU for HDC")
	}
}

func TestMLCheaperThanHDCOnConventional(t *testing.T) {
	// Figure 3: conventional ML (e.g. a small MLP, ~10⁵ MACs) costs less
	// energy than HDC on the Pi and the CPU. (The paper omits ML-on-eGPU:
	// it performed worse than the CPU there.)
	hdcOps := genericParams().InferOps()
	mlOps := MLInferOps(100_000)
	for _, d := range []Device{RaspberryPi, CPU} {
		_, eHDC := d.Run(hdcOps)
		_, eML := d.Run(mlOps)
		if eML >= eHDC {
			t.Errorf("%s: ML inference (%g J) not cheaper than HDC (%g J)", d.Name, eML, eHDC)
		}
	}
}

func TestTrainOpsScaleWithEpochs(t *testing.T) {
	p := genericParams()
	o1 := p.TrainOps(1000, 1)
	o20 := p.TrainOps(1000, 20)
	if o20.Int <= o1.Int {
		t.Error("training ops must grow with epochs")
	}
	// Encoding cost is paid once (cached encodings).
	if o20.Packed != o1.Packed {
		t.Error("encoding ops should not scale with epochs (cached)")
	}
}

func TestMLTrainFormulas(t *testing.T) {
	p := MLTrainParams{Samples: 1000, Features: 128, Classes: 10}
	if o := p.ForestTrainOps(100, 0, 0); o.Float <= 0 {
		t.Error("forest train ops empty")
	}
	if o := p.SVMTrainOps(30); o.Float != 10*30*1000*128*4 {
		t.Errorf("SVM train ops = %d", o.Float)
	}
	if o := p.LRTrainOps(30); o.Float <= 0 {
		t.Error("LR train ops empty")
	}
	if o := p.MLPTrainOps(50_000, 40); o.Float != 50_000*1000*40*6 {
		t.Errorf("MLP train ops = %d", o.Float)
	}
}

func TestKMeansOps(t *testing.T) {
	o := KMeansOps(800, 2, 2, 20)
	want := int64(20) * (800*2*2*3 + 800*2)
	if o.Float != want {
		t.Errorf("KMeansOps = %d, want %d", o.Float, want)
	}
}

func TestHelperMath(t *testing.T) {
	if isqrt(128) != 11 {
		t.Errorf("isqrt(128) = %d", isqrt(128))
	}
	if isqrt(0) != 0 || isqrt(1) != 1 {
		t.Error("isqrt edge cases wrong")
	}
	if log2int(1024) != 10 {
		t.Errorf("log2int(1024) = %d", log2int(1024))
	}
	if log2int(1) != 1 {
		t.Errorf("log2int(1) = %d (floor of 0 clamps to 1)", log2int(1))
	}
}
