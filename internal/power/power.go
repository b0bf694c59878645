// Package power models the GENERIC ASIC's area, power, and energy at the
// 14 nm node, calibrated to the paper's reported silicon numbers (§5.1):
// 0.30 mm² area, 0.25 mW worst-case static power (all class-memory banks
// on), 0.09 mW application-average static power after bank gating, and
// ~1.79 mW average dynamic power at 500 MHz — with the Fig. 7 component
// breakdown (class memories dominate every category).
//
// The package also models the paper's energy-reduction levers:
//
//   - application-opportunistic power gating (§4.3.2): class-memory static
//     power scales with the fraction of powered banks;
//   - voltage over-scaling (§4.3.4): an interpolated voltage↔bit-error-rate
//     ↔power table in the spirit of the SRAM measurements of Yang & Murmann
//     (ISQED'17, the paper's ref [20]);
//   - bit-width masking: dynamic class-memory and datapath energy scale
//     with the effective bit-width bw/16.
package power

import (
	"math"

	"github.com/edge-hdc/generic/internal/sim"
)

// Breakdown assigns a quantity (area, power, energy) to the six components
// of Fig. 7.
type Breakdown struct {
	Control    float64
	Datapath   float64
	BaseMem    float64 // score/norm2/temporary memories
	FeatureMem float64 // 1024×8b input memory
	LevelMem   float64 // 64×D level memory (32 KB)
	ClassMem   float64 // m × 8K×16b class memories (256 KB)
}

// Total sums the components.
func (b Breakdown) Total() float64 {
	return b.Control + b.Datapath + b.BaseMem + b.FeatureMem + b.LevelMem + b.ClassMem
}

// Scale returns the breakdown multiplied by f.
func (b Breakdown) Scale(f float64) Breakdown {
	return Breakdown{
		Control: b.Control * f, Datapath: b.Datapath * f, BaseMem: b.BaseMem * f,
		FeatureMem: b.FeatureMem * f, LevelMem: b.LevelMem * f, ClassMem: b.ClassMem * f,
	}
}

// Fractions returns each component as a fraction of the total.
func (b Breakdown) Fractions() Breakdown {
	t := b.Total()
	if t == 0 {
		return Breakdown{}
	}
	return b.Scale(1 / t)
}

// Area returns the synthesized area in mm² (total 0.30 mm², §5.1), with
// class memories ≈ 80% (Fig. 7a).
func Area() Breakdown {
	return Breakdown{
		Control:    0.0045,
		Datapath:   0.0165,
		BaseMem:    0.0051,
		FeatureMem: 0.0042,
		LevelMem:   0.0288,
		ClassMem:   0.2409,
	}
}

// StaticPowerAllBanks returns the worst-case static power in mW with every
// class-memory bank powered (total 0.25 mW, §5.1; class memories 88.4%,
// Fig. 7b).
func StaticPowerAllBanks() Breakdown {
	return Breakdown{
		Control:    0.0020,
		Datapath:   0.0040,
		BaseMem:    0.0028,
		FeatureMem: 0.0019,
		LevelMem:   0.0183,
		ClassMem:   0.2210,
	}
}

// Per-access dynamic energies at 14 nm / nominal voltage, in picojoules.
// Calibrated so a representative classification workload (D=4K, d≈128,
// nC≈10) averages ≈1.8 mW dynamic at 500 MHz with the class memories
// consuming ~3/4 of it (§4.3.4: "the large class memories consume ∼80% of
// the total power").
const (
	classWordPJ    = 2.1  // one 16-bit class-memory word read or write
	levelRowPJ     = 0.65 // one m-bit level-memory row read
	featureReadPJ  = 0.20 // one 8-bit feature read
	featureWritePJ = 0.22
	idGenPJ        = 0.05 // one id-seed rotation step
	datapathPJ     = 0.28 // encoder/MAC/divider activity per cycle
	controlPJ      = 0.06 // controller per cycle
)

// VOSPoint is one operating point of the voltage over-scaling model:
// scaling the SRAM supply to VFrac of nominal yields bit-error rate BER and
// multiplies static and dynamic power by the given factors. The table shape
// follows the SRAM scaling measurements of the paper's ref [20]: static
// power falls roughly exponentially with voltage (up to ~7× at 10% BER,
// Fig. 6 right axes), dynamic quadratically.
type VOSPoint struct {
	VFrac        float64
	BER          float64
	StaticFactor float64
	DynFactor    float64
}

// Nominal is the no-over-scaling operating point.
func Nominal() VOSPoint { return VOSPoint{VFrac: 1, BER: 0, StaticFactor: 1, DynFactor: 1} }

var vosTable = []VOSPoint{
	{1.00, 0, 1.00, 1.00},
	{0.95, 1e-6, 0.72, 0.90},
	{0.90, 1e-5, 0.52, 0.81},
	{0.85, 1e-4, 0.38, 0.72},
	{0.80, 1e-3, 0.27, 0.64},
	{0.75, 1e-2, 0.19, 0.56},
	{0.70, 1e-1, 0.14, 0.49},
}

// VOSForBER returns the operating point whose memories exhibit the given
// bit-error rate, interpolating between table points in log-BER space.
// Rates above the table maximum clamp to the last point.
func VOSForBER(ber float64) VOSPoint {
	if ber <= 0 {
		return vosTable[0]
	}
	last := vosTable[len(vosTable)-1]
	if ber >= last.BER {
		return last
	}
	for i := 1; i < len(vosTable); i++ {
		lo, hi := vosTable[i-1], vosTable[i]
		if ber <= hi.BER {
			// Interpolate in log space (lo.BER may be 0 on the first
			// segment; substitute a floor).
			lb := lo.BER
			if lb <= 0 {
				lb = hi.BER / 100
				if ber <= lb {
					return lo
				}
			}
			t := (math.Log(ber) - math.Log(lb)) / (math.Log(hi.BER) - math.Log(lb))
			return VOSPoint{
				VFrac:        lo.VFrac + t*(hi.VFrac-lo.VFrac),
				BER:          ber,
				StaticFactor: lo.StaticFactor + t*(hi.StaticFactor-lo.StaticFactor),
				DynFactor:    lo.DynFactor + t*(hi.DynFactor-lo.DynFactor),
			}
		}
	}
	return last
}

// Config selects the energy-reduction state for an energy computation.
type Config struct {
	// ActiveBankFrac is the powered fraction of class-memory banks
	// (sim.Spec.ActiveBankFrac); zero means all banks on.
	ActiveBankFrac float64
	// VOS is the voltage operating point; the zero value means nominal.
	VOS VOSPoint
	// BW is the effective class bit-width (≤16); zero means 16. Narrower
	// widths proportionally reduce class-memory and MAC dynamic energy
	// (§4.3.4: quantized elements reduce the dot-product dynamic power).
	BW int
	// MaskedLanes is the number of dead class-memory banks masked out of
	// the dot product by the fault layer (sim.Accelerator.MaskedLanes). A
	// masked bank is powered off entirely — its static and dynamic
	// class-memory share disappears along with its dimensions.
	MaskedLanes int
}

func (c Config) normalized() Config {
	if c.ActiveBankFrac <= 0 || c.ActiveBankFrac > 1 {
		c.ActiveBankFrac = 1
	}
	if c.VOS.VFrac == 0 {
		c.VOS = Nominal()
	}
	if c.BW <= 0 || c.BW > 16 {
		c.BW = 16
	}
	if c.MaskedLanes < 0 || c.MaskedLanes >= sim.M {
		c.MaskedLanes = 0
	}
	return c
}

// laneFrac returns the fraction of class-memory lanes still alive.
func (c Config) laneFrac() float64 {
	return float64(sim.M-c.MaskedLanes) / float64(sim.M)
}

// Report is the energy accounting for one workload.
type Report struct {
	Seconds   float64
	StaticJ   float64
	DynamicJ  float64
	DynParts  Breakdown // dynamic energy per component, J
	TotalJ    float64
	AvgPowerW float64
}

// StaticPowerW returns the gated, voltage-scaled static power in watts.
func StaticPowerW(cfg Config) float64 {
	cfg = cfg.normalized()
	b := StaticPowerAllBanks()
	classW := b.ClassMem * cfg.ActiveBankFrac * cfg.VOS.StaticFactor * cfg.laneFrac()
	others := b.Total() - b.ClassMem
	return (classW + others) * 1e-3 // mW → W
}

// Energy turns a simulated workload into joules under the given config.
func Energy(st sim.Stats, cfg Config) Report {
	cfg = cfg.normalized()
	bwScale := float64(cfg.BW) / 16

	var dyn Breakdown
	dyn.ClassMem = float64(st.ClassMemReads+st.ClassMemWrites) * classWordPJ * bwScale * cfg.VOS.DynFactor * cfg.laneFrac()
	dyn.LevelMem = float64(st.LevelMemReads) * levelRowPJ
	dyn.FeatureMem = float64(st.FeatureMemReads)*featureReadPJ + float64(st.FeatureMemWrites)*featureWritePJ
	dyn.Datapath = float64(st.Cycles)*datapathPJ*bwScale + float64(st.IDGenerations)*idGenPJ
	dyn.Control = float64(st.Cycles) * controlPJ
	dyn = dyn.Scale(1e-12) // pJ → J

	sec := st.Seconds()
	r := Report{
		Seconds:  sec,
		StaticJ:  StaticPowerW(cfg) * sec,
		DynamicJ: dyn.Total(),
		DynParts: dyn,
	}
	r.TotalJ = r.StaticJ + r.DynamicJ
	if sec > 0 {
		r.AvgPowerW = r.TotalJ / sec
	}
	return r
}

// TinyHDStaticPowerW returns the static power of the tiny-HD-style
// inference-only design (paper ref [8]) modeled in internal/tinyhd: its
// 4-bit read-only class memories are 4× smaller than GENERIC's trainable
// 16-bit ones (and need no temporary rows).
func TinyHDStaticPowerW(activeBankFrac float64) float64 {
	if activeBankFrac <= 0 || activeBankFrac > 1 {
		activeBankFrac = 1
	}
	b := StaticPowerAllBanks()
	classW := b.ClassMem / 4 * activeBankFrac
	others := b.Total() - b.ClassMem
	return (classW + others) * 1e-3
}

// TinyHDEnergy turns a tiny-HD workload (internal/tinyhd stats, whose
// class accesses are already counted in word-units over the 4× smaller
// memories) into joules.
func TinyHDEnergy(st sim.Stats, activeBankFrac float64) Report {
	var dyn Breakdown
	dyn.ClassMem = float64(st.ClassMemReads+st.ClassMemWrites) * classWordPJ
	dyn.LevelMem = float64(st.LevelMemReads) * levelRowPJ
	dyn.FeatureMem = float64(st.FeatureMemReads)*featureReadPJ + float64(st.FeatureMemWrites)*featureWritePJ
	dyn.Datapath = float64(st.Cycles) * datapathPJ
	dyn.Control = float64(st.Cycles) * controlPJ
	dyn = dyn.Scale(1e-12)
	sec := st.Seconds()
	r := Report{
		Seconds:  sec,
		StaticJ:  TinyHDStaticPowerW(activeBankFrac) * sec,
		DynamicJ: dyn.Total(),
		DynParts: dyn,
	}
	r.TotalJ = r.StaticJ + r.DynamicJ
	if sec > 0 {
		r.AvgPowerW = r.TotalJ / sec
	}
	return r
}

// Per-event energies of the programmable HD processor modeled in
// internal/hdproc (the paper's ref [10]), at the same 14 nm node. The
// processor pays instruction fetch/decode on every operation and streams
// vectors through a 256-bit register-file datapath — both substantially
// more expensive per useful bit than GENERIC's fixed-function pipeline.
const (
	procInstrPJ = 2.5 // fetch + decode + issue per instruction
	procLanePJ  = 2.2 // one 256-bit lane-cycle (RF read/op/write)
	procMemPJ   = 6.0 // one 256-bit memory row read
)

// ProcStaticPowerW is the processor's static power: comparable memories to
// GENERIC (it is also trainable, storing 16-bit class vectors) plus a
// larger datapath/control section. No application bank gating — a
// general-purpose design keeps its memories powered.
func ProcStaticPowerW() float64 {
	b := StaticPowerAllBanks()
	return (b.Total() + 2*b.Datapath + 2*b.Control) * 1e-3
}

// ProcEnergy turns an hdproc workload (instruction count, vector
// lane-cycles, memory lane reads, wall time) into joules.
func ProcEnergy(instructions, laneCycles, memReads int64, seconds float64) Report {
	dyn := Breakdown{
		Control:  float64(instructions) * procInstrPJ * 1e-12,
		Datapath: float64(laneCycles) * procLanePJ * 1e-12,
		ClassMem: float64(memReads) * procMemPJ * 1e-12,
	}
	r := Report{
		Seconds:  seconds,
		StaticJ:  ProcStaticPowerW() * seconds,
		DynamicJ: dyn.Total(),
		DynParts: dyn,
	}
	r.TotalJ = r.StaticJ + r.DynamicJ
	if seconds > 0 {
		r.AvgPowerW = r.TotalJ / seconds
	}
	return r
}
