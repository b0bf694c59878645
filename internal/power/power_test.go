package power

import (
	"math"
	"testing"

	"github.com/edge-hdc/generic/internal/sim"
)

func TestAreaMatchesPaper(t *testing.T) {
	a := Area()
	if got := a.Total(); math.Abs(got-0.30) > 0.01 {
		t.Errorf("total area = %.4f mm², paper reports 0.30", got)
	}
	fr := a.Fractions()
	if fr.ClassMem < 0.7 {
		t.Errorf("class-memory area share = %.2f, should dominate (~0.8)", fr.ClassMem)
	}
	if fr.LevelMem > 0.10 {
		t.Errorf("level-memory area share = %.2f, paper says < 10%%", fr.LevelMem)
	}
}

func TestStaticPowerMatchesPaper(t *testing.T) {
	s := StaticPowerAllBanks()
	if got := s.Total(); math.Abs(got-0.25) > 0.01 {
		t.Errorf("worst-case static = %.4f mW, paper reports 0.25", got)
	}
	// Application-average: the paper's datasets fill 28% of the class
	// memories → ~1.6 of 4 banks (≈0.4 active fraction) → 0.09 mW.
	got := StaticPowerW(Config{ActiveBankFrac: 0.3}) * 1e3
	if math.Abs(got-0.09) > 0.02 {
		t.Errorf("gated static = %.3f mW, paper reports 0.09", got)
	}
}

func TestStaticGatingSavesClassPower(t *testing.T) {
	full := StaticPowerW(Config{ActiveBankFrac: 1})
	gated := StaticPowerW(Config{ActiveBankFrac: 0.25})
	if gated >= full {
		t.Fatal("gating did not reduce static power")
	}
	// Class memories are ~88% of static; gating 75% of them saves ~66%.
	saving := 1 - gated/full
	if saving < 0.5 || saving > 0.75 {
		t.Errorf("gating saving = %.2f, want ≈ 0.66", saving)
	}
}

// referenceWorkload builds the stats of a representative classification
// inference batch (D=4K, d=128, nC=10).
func referenceWorkload(t *testing.T, n int) sim.Stats {
	t.Helper()
	spec := sim.Spec{D: 4096, Features: 128, N: 3, Classes: 10, BW: 16, UseID: true}
	acc := sim.MustNew(spec, 1)
	x := make([]float64, 128)
	for i := range x {
		x[i] = float64(i%7) / 7
	}
	for i := 0; i < n; i++ {
		acc.Infer(x)
	}
	return acc.Stats()
}

func TestDynamicPowerInPaperRange(t *testing.T) {
	st := referenceWorkload(t, 20)
	r := Energy(st, Config{ActiveBankFrac: 0.5})
	dynMW := r.DynamicJ / r.Seconds * 1e3
	// Paper: 1.79 mW average dynamic. Allow a generous band around it.
	if dynMW < 1.0 || dynMW > 3.0 {
		t.Errorf("dynamic power = %.2f mW, want ≈ 1.8 (paper)", dynMW)
	}
	fr := r.DynParts.Fractions()
	if fr.ClassMem < 0.55 {
		t.Errorf("class-memory dynamic share = %.2f, must dominate (§4.3.4)", fr.ClassMem)
	}
}

func TestEnergyAdditivity(t *testing.T) {
	st1 := referenceWorkload(t, 1)
	st10 := referenceWorkload(t, 10)
	r1 := Energy(st1, Config{})
	r10 := Energy(st10, Config{})
	if math.Abs(r10.TotalJ-10*r1.TotalJ) > 1e-9*10*r1.TotalJ {
		t.Errorf("energy not additive: %g vs 10×%g", r10.TotalJ, r1.TotalJ)
	}
}

func TestBWScalingReducesDynamic(t *testing.T) {
	st := referenceWorkload(t, 5)
	full := Energy(st, Config{BW: 16})
	narrow := Energy(st, Config{BW: 4})
	if narrow.DynamicJ >= full.DynamicJ {
		t.Fatal("narrow bit-width did not reduce dynamic energy")
	}
	// Class-memory dynamic should scale ~4×; total less (level/feature
	// memories unaffected).
	if narrow.DynParts.ClassMem*3.9 > full.DynParts.ClassMem*1.01 {
		t.Errorf("class dynamic did not scale with bw: %g vs %g",
			narrow.DynParts.ClassMem, full.DynParts.ClassMem)
	}
}

func TestVOSForBER(t *testing.T) {
	if p := VOSForBER(0); p != Nominal() {
		t.Errorf("BER 0 = %+v, want nominal", p)
	}
	p := VOSForBER(0.1)
	if math.Abs(1/p.StaticFactor-7.1) > 0.5 {
		t.Errorf("10%% BER static reduction = %.2f×, paper's Fig. 6 shows ≈7×", 1/p.StaticFactor)
	}
	if p.DynFactor >= 1 || p.DynFactor <= 0 {
		t.Errorf("bad dyn factor %v", p.DynFactor)
	}
	// Clamp above the table.
	if p2 := VOSForBER(0.5); p2.StaticFactor != p.StaticFactor {
		t.Error("BER above table did not clamp")
	}
}

func TestVOSMonotone(t *testing.T) {
	prev := Nominal()
	for _, ber := range []float64{1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1} {
		p := VOSForBER(ber)
		if p.StaticFactor > prev.StaticFactor+1e-12 || p.DynFactor > prev.DynFactor+1e-12 {
			t.Errorf("power factors not monotone at BER %g: %+v after %+v", ber, p, prev)
		}
		if p.VFrac > prev.VFrac+1e-12 {
			t.Errorf("voltage not monotone at BER %g", ber)
		}
		prev = p
	}
}

func TestVOSReducesEnergy(t *testing.T) {
	st := referenceWorkload(t, 5)
	nom := Energy(st, Config{})
	vos := Energy(st, Config{VOS: VOSForBER(0.01)})
	if vos.TotalJ >= nom.TotalJ {
		t.Error("voltage over-scaling did not reduce energy")
	}
}

func TestConfigNormalization(t *testing.T) {
	st := referenceWorkload(t, 1)
	a := Energy(st, Config{})
	b := Energy(st, Config{ActiveBankFrac: 1, VOS: Nominal(), BW: 16})
	if a.TotalJ != b.TotalJ {
		t.Error("zero config does not normalize to nominal")
	}
}

func TestInferenceEnergyOrderOfMagnitude(t *testing.T) {
	// One inference at D=4K, d=128: tens of nanojoules (µW·µs scale) —
	// the basis for Fig. 9's 3-4 orders-of-magnitude win over CPUs.
	st := referenceWorkload(t, 1)
	r := Energy(st, Config{ActiveBankFrac: 0.5})
	nj := r.TotalJ * 1e9
	if nj < 10 || nj > 1000 {
		t.Errorf("per-inference energy = %.1f nJ, outside the plausible envelope", nj)
	}
}

func TestProcEnergy(t *testing.T) {
	r := ProcEnergy(1000, 5000, 2000, 1e-4)
	if r.TotalJ <= 0 || r.DynamicJ <= 0 || r.StaticJ <= 0 {
		t.Fatalf("degenerate report: %+v", r)
	}
	if r.AvgPowerW <= 0 {
		t.Fatal("no average power")
	}
	// Doubling the work doubles dynamic energy.
	r2 := ProcEnergy(2000, 10000, 4000, 1e-4)
	if math.Abs(r2.DynamicJ-2*r.DynamicJ) > 1e-18 {
		t.Fatalf("dynamic energy not linear: %g vs 2×%g", r2.DynamicJ, r.DynamicJ)
	}
	// Zero time: no static, no average power blowup.
	r0 := ProcEnergy(10, 10, 10, 0)
	if r0.StaticJ != 0 || math.IsInf(r0.AvgPowerW, 0) || math.IsNaN(r0.AvgPowerW) {
		t.Fatalf("zero-time report broken: %+v", r0)
	}
}

func TestProcStaticAboveGENERIC(t *testing.T) {
	// The programmable processor keeps everything powered and carries a
	// bigger control/datapath section: its static power must exceed
	// GENERIC's worst case.
	if ProcStaticPowerW() <= StaticPowerW(Config{ActiveBankFrac: 1}) {
		t.Fatal("processor static power should exceed GENERIC's")
	}
}

func TestTinyHDEnergyBankFracClamp(t *testing.T) {
	st := referenceWorkload(t, 1)
	a := TinyHDEnergy(st, 0) // clamps to 1
	b := TinyHDEnergy(st, 1)
	if a.StaticJ != b.StaticJ {
		t.Fatal("bank fraction 0 should clamp to all banks")
	}
	gated := TinyHDEnergy(st, 0.25)
	if gated.StaticJ >= b.StaticJ {
		t.Fatal("gating should reduce tiny-HD static energy")
	}
}

func TestStaticPowerVOSInteraction(t *testing.T) {
	nominal := StaticPowerW(Config{ActiveBankFrac: 0.5})
	scaled := StaticPowerW(Config{ActiveBankFrac: 0.5, VOS: VOSForBER(0.01)})
	if scaled >= nominal {
		t.Fatal("VOS should reduce static power")
	}
	// Only the class-memory share scales; the floor is the other
	// components.
	floor := StaticPowerAllBanks()
	others := (floor.Total() - floor.ClassMem) * 1e-3
	if scaled < others {
		t.Fatal("static power fell below the non-gated components")
	}
}

func TestMaskedLanesScalePower(t *testing.T) {
	st := sim.Stats{Cycles: 1000, ClassMemReads: 5000, ClassMemWrites: 100, Inferences: 10}
	full := Energy(st, Config{})
	masked := Energy(st, Config{MaskedLanes: 4})
	// A dead bank draws no dynamic class-memory power: 4 of 16 lanes off
	// cuts the class share by exactly a quarter.
	if masked.DynamicJ >= full.DynamicJ {
		t.Errorf("masked-lane dynamic energy %.3g not below full %.3g", masked.DynamicJ, full.DynamicJ)
	}
	sFull := StaticPowerW(Config{})
	sMasked := StaticPowerW(Config{MaskedLanes: 4})
	if sMasked >= sFull {
		t.Errorf("masked-lane static power %.3g not below full %.3g", sMasked, sFull)
	}
	// Out-of-range lane counts normalize to zero (all lanes alive).
	if got := StaticPowerW(Config{MaskedLanes: sim.M}); got != sFull {
		t.Errorf("MaskedLanes=%d not normalized: %.3g vs %.3g", sim.M, got, sFull)
	}
	if got := StaticPowerW(Config{MaskedLanes: -1}); got != sFull {
		t.Errorf("MaskedLanes=-1 not normalized: %.3g vs %.3g", got, sFull)
	}
}
