// Package hdproc models the programmable hyperdimensional processor of
// Datta et al. (IEEE JETCAS 2019 — the paper's ref [10]): the trainable
// HDC *processor* GENERIC is compared against in Figures 8/9.
//
// Unlike GENERIC's fixed-function pipeline, the processor executes an HDC
// instruction stream on a vector register file. Each vector instruction
// streams a D-bit (or D-element) operand through LaneBits-wide lanes, so a
// D=4096 XOR takes D/LaneBits cycles — plus the fetch/decode/issue
// overhead every instruction pays, which is exactly the inefficiency the
// paper attributes to programmable designs ("an HDC-tailored processor …
// consumes ∼1−2 orders of magnitude more energy than ASIC counterparts"
// for PULP; the JETCAS design sits in between).
//
// The model is functional: programs really execute on architectural state
// (binary vector registers, an integer accumulator file, scalar registers),
// and the packaged GENERIC-encoding program produces bit-identical results
// to internal/encoding. Correctness is asserted by tests; cycle counts and
// per-instruction energies feed Figure 9.
package hdproc

import (
	"fmt"
	"math"

	"github.com/edge-hdc/generic/internal/approx"
	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/rng"
)

// Architectural parameters of the modeled processor.
const (
	// LaneBits is the vector datapath width: bits (or accumulator
	// elements·16b) processed per cycle.
	LaneBits = 256
	// VRegs is the number of D-bit binary vector registers.
	VRegs = 8
	// ARegs is the number of D-element integer accumulator registers.
	ARegs = 4
	// SRegs is the number of 64-bit scalar registers.
	SRegs = 8
	// ClockHz matches GENERIC's node and clock for a fair comparison.
	ClockHz = 500e6
)

// Op is an instruction opcode.
type Op int

const (
	// OpLDLV rd, bin: load the level hypervector for quantization bin
	// s-reg[src] into v-reg rd.
	OpLDLV Op = iota
	// OpLDID rd, k: load id(k) (rotated seed) into v-reg rd.
	OpLDID
	// OpXORV rd, ra, rb: rd = ra ⊕ rb.
	OpXORV
	// OpROTV rd, ra, k: rd = ρ(k)(ra).
	OpROTV
	// OpACCV ad, ra: bundle binary v-reg ra into accumulator ad (±1).
	OpACCV
	// OpCLRA ad: clear accumulator ad.
	OpCLRA
	// OpDOTC sd, aa, c: sd = dot(accumulator aa, class c).
	OpDOTC
	// OpSCOR sd, sa, c: sd = approximate score of dot sa against class
	// c's stored norm.
	OpSCOR
	// OpMAXS sd, sa, c: if scalar sa > current max, record class c and
	// update the max held in sd.
	OpMAXS
	// OpQNTZ sd, f: quantize input feature f into a level bin (scalar).
	OpQNTZ
)

// Instr is one instruction.
type Instr struct {
	Op         Op
	Rd, Ra, Rb int
	Imm        int
}

// Program is an instruction sequence.
type Program []Instr

// Stats accounts executed work.
type Stats struct {
	Instructions int64
	Cycles       int64
	VectorCycles int64 // cycles spent streaming vector lanes
	MemReads     int64 // level/id/class memory row reads (LaneBits-wide)
}

// Seconds converts cycles to time at the modeled clock.
func (s Stats) Seconds() float64 { return float64(s.Cycles) / ClockHz }

// Processor is an instance with loaded hypervector material and a class
// model.
type Processor struct {
	d      int
	levels *hdc.LevelTable
	idGen  *hdc.IDGenerator
	lo, hi float64

	classes []hdc.Vec
	norms   []int64

	vregs []*hdc.BinVec
	aregs []hdc.Vec
	sregs []int64

	input []float64
	stats Stats

	// argmax state for OpMAXS
	bestClass int
	bestScore int64
}

// Config parameterizes a processor instance.
type Config struct {
	D      int
	Bins   int
	Lo, Hi float64
	Seed   uint64
}

// New builds a processor with fresh hypervector material.
func New(cfg Config) (*Processor, error) {
	if cfg.D <= 0 || cfg.D%hdc.WordBits != 0 {
		return nil, fmt.Errorf("hdproc: D=%d must be a positive multiple of %d", cfg.D, hdc.WordBits)
	}
	if cfg.Bins == 0 {
		cfg.Bins = 64
	}
	if cfg.Hi == cfg.Lo {
		cfg.Hi = cfg.Lo + 1
	}
	// Split the seed the way internal/encoding does, so the processor's
	// hypervector material is bit-identical to an encoding.Generic encoder
	// built with the same seed.
	r := rng.New(cfg.Seed)
	p := &Processor{
		d:      cfg.D,
		levels: hdc.NewLevelTable(cfg.D, cfg.Bins, r.Split()),
		idGen:  hdc.NewIDGenerator(cfg.D, r.Split()),
		lo:     cfg.Lo,
		hi:     cfg.Hi,
	}
	p.vregs = make([]*hdc.BinVec, VRegs)
	for i := range p.vregs {
		p.vregs[i] = hdc.NewBinVec(cfg.D)
	}
	p.aregs = make([]hdc.Vec, ARegs)
	for i := range p.aregs {
		p.aregs[i] = hdc.NewVec(cfg.D)
	}
	p.sregs = make([]int64, SRegs)
	return p, nil
}

// LoadClasses installs the class model (hypervectors and squared norms).
func (p *Processor) LoadClasses(classes []hdc.Vec, norms []int64) error {
	if len(classes) != len(norms) {
		return fmt.Errorf("hdproc: %d classes vs %d norms", len(classes), len(norms))
	}
	for i, c := range classes {
		if len(c) != p.d {
			return fmt.Errorf("hdproc: class %d has D=%d, want %d", i, len(c), p.d)
		}
	}
	p.classes = classes
	p.norms = norms
	return nil
}

// SetInput installs the feature vector subsequent OpQNTZ instructions read.
func (p *Processor) SetInput(x []float64) { p.input = x }

// Stats returns accumulated counters; ResetStats clears them.
func (p *Processor) Stats() Stats { return p.stats }
func (p *Processor) ResetStats()  { p.stats = Stats{} }

// BestClass returns the argmax tracked by OpMAXS since the last ClearMax.
func (p *Processor) BestClass() int { return p.bestClass }

// ClearMax resets the argmax tracker.
func (p *Processor) ClearMax() {
	p.bestClass = -1
	p.bestScore = math.MinInt64
}

// vcycles is the lane-streaming cost of one D-wide vector instruction.
func (p *Processor) vcycles() int64 { return int64((p.d + LaneBits - 1) / LaneBits) }

// Run executes a program.
func (p *Processor) Run(prog Program) error {
	for pc, in := range prog {
		if err := p.exec(in); err != nil {
			return fmt.Errorf("hdproc: pc %d: %w", pc, err)
		}
	}
	return nil
}

func (p *Processor) exec(in Instr) error {
	p.stats.Instructions++
	p.stats.Cycles++ // fetch/decode/issue
	switch in.Op {
	case OpQNTZ:
		if in.Imm < 0 || in.Imm >= len(p.input) {
			return fmt.Errorf("QNTZ feature %d out of range", in.Imm)
		}
		p.sregs[in.Rd] = int64(p.levels.Quantize(p.input[in.Imm], p.lo, p.hi))
	case OpLDLV:
		bin := int(p.sregs[in.Ra])
		if bin < 0 || bin >= p.levels.Bins() {
			return fmt.Errorf("LDLV bin %d out of range", bin)
		}
		p.vregs[in.Rd].CopyFrom(p.levels.Level(bin))
		p.stats.Cycles += p.vcycles()
		p.stats.VectorCycles += p.vcycles()
		p.stats.MemReads += p.vcycles()
	case OpLDID:
		p.idGen.ID(in.Imm, p.vregs[in.Rd])
		p.stats.Cycles += p.vcycles()
		p.stats.VectorCycles += p.vcycles()
		p.stats.MemReads += p.vcycles()
	case OpXORV:
		hdc.XorInto(p.vregs[in.Rd], p.vregs[in.Ra], p.vregs[in.Rb])
		p.stats.Cycles += p.vcycles()
		p.stats.VectorCycles += p.vcycles()
	case OpROTV:
		if in.Rd == in.Ra {
			tmp := hdc.Rotate(p.vregs[in.Ra], in.Imm)
			p.vregs[in.Rd].CopyFrom(tmp)
		} else {
			hdc.RotateInto(p.vregs[in.Rd], p.vregs[in.Ra], in.Imm)
		}
		p.stats.Cycles += p.vcycles()
		p.stats.VectorCycles += p.vcycles()
	case OpACCV:
		a := p.aregs[in.Rd]
		v := p.vregs[in.Ra]
		for i := range a {
			a[i] += int32(2*v.Bit(i) - 1)
		}
		// Accumulation streams 16-bit elements: 16× the binary lanes.
		c := p.vcycles() * 16
		p.stats.Cycles += c
		p.stats.VectorCycles += c
	case OpCLRA:
		a := p.aregs[in.Rd]
		for i := range a {
			a[i] = 0
		}
		c := p.vcycles() * 16
		p.stats.Cycles += c
		p.stats.VectorCycles += c
	case OpDOTC:
		if in.Imm < 0 || in.Imm >= len(p.classes) {
			return fmt.Errorf("DOTC class %d out of range", in.Imm)
		}
		p.sregs[in.Rd] = p.aregs[in.Ra].Dot(p.classes[in.Imm])
		c := p.vcycles() * 16
		p.stats.Cycles += c
		p.stats.VectorCycles += c
		p.stats.MemReads += c
	case OpSCOR:
		if in.Imm < 0 || in.Imm >= len(p.classes) {
			return fmt.Errorf("SCOR class %d out of range", in.Imm)
		}
		p.sregs[in.Rd] = approx.ScoreApprox(p.sregs[in.Ra], p.norms[in.Imm])
	case OpMAXS:
		if s := p.sregs[in.Ra]; s > p.bestScore {
			p.bestScore = s
			p.bestClass = in.Imm
		}
	default:
		return fmt.Errorf("unknown opcode %d", in.Op)
	}
	return nil
}
