// Package sim models the GENERIC ASIC accelerator (paper §4, Fig. 4) at
// the architectural level: it is functionally exact — encoding, integer
// dot products, and Mitchell-approximate score normalization produce the
// hardware's answers — and it accounts cycles and per-memory accesses the
// way the pipelined datapath would, so the power package can turn a
// workload into energy.
//
// Architecture summary (paper §4.1–4.2):
//
//   - The encoder emits m = 16 partial dimensions per pass over the stored
//     input; a D-dimensional encoding takes D/m passes of ~d cycles each.
//   - Class hypervectors are striped across m class memories so one cycle
//     reads m consecutive dimensions of one class; the dot product is
//     pipelined with encoding.
//   - Scores are normalized with an approximate log-based divider
//     (Mitchell) — no hardware divider.
//   - Retraining updates take 3·D/m cycles per touched class (§4.2.2).
//   - Clustering keeps copy centroids that replace the model each epoch
//     (§4.2.3).
package sim

import (
	"fmt"
	"math"

	"github.com/edge-hdc/generic/internal/approx"
	"github.com/edge-hdc/generic/internal/classifier"
	"github.com/edge-hdc/generic/internal/encoding"
	"github.com/edge-hdc/generic/internal/faults"
	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/rng"
)

// Architectural constants (§4.1, §5.1).
const (
	// M is the number of partial dimensions the encoder produces per pass
	// and the number of class memories.
	M = 16
	// ClockHz is the synthesis target clock (500 MHz at 14 nm).
	ClockHz = 500e6
	// MaxFeatures is the input-memory depth (1024 × 8 b).
	MaxFeatures = 1024
	// LevelBins is the number of level hypervectors (64 × D bits).
	LevelBins = 64
	// ClassMemRowsPerMem is the depth of each of the M class memories
	// (8K × 16 b, 16 KB each): total capacity M·8K = 128K dimensions,
	// e.g. D=4K for 32 classes or D=8K for 16 classes.
	ClassMemRowsPerMem = 8192
	// MaxClasses bounds the number of classes/centroids.
	MaxClasses = 32
	// Banks is the power-gating granularity of each class memory (§4.3.2).
	Banks = 4
	// PipelineFill approximates the datapath fill/drain overhead per pass.
	PipelineFill = 4
)

// Mode selects the engine operation, as driven by the spec port.
type Mode int

const (
	// Inference classifies queries against a loaded model.
	Inference Mode = iota
	// Train performs model initialization and retraining.
	Train
	// Cluster performs unsupervised centroid learning.
	Cluster
)

func (m Mode) String() string {
	switch m {
	case Inference:
		return "inference"
	case Train:
		return "train"
	case Cluster:
		return "cluster"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Spec mirrors the accelerator's spec port: the application parameters that
// make GENERIC flexible without an instruction set (§4.1).
type Spec struct {
	D        int  // hypervector dimensionality
	Features int  // d: elements per input
	N        int  // window length (paper default 3)
	Classes  int  // nC: classes or centroids
	BW       int  // effective class bit-width (16 native; 8/4/2/1 masked)
	UseID    bool // bind per-window ids (Eq. 1)
	Mode     Mode
}

// Validate checks the spec against the architectural limits.
func (s Spec) Validate() error {
	if s.D <= 0 || s.D%(classifier.SubNormGranularity) != 0 {
		return fmt.Errorf("sim: D=%d must be a positive multiple of %d", s.D, classifier.SubNormGranularity)
	}
	if s.Features < 1 || s.Features > MaxFeatures {
		return fmt.Errorf("sim: features=%d out of [1,%d]", s.Features, MaxFeatures)
	}
	if s.N < 1 || s.N > s.Features {
		return fmt.Errorf("sim: window n=%d out of [1,features]", s.N)
	}
	if s.Classes < 1 || s.Classes > MaxClasses {
		return fmt.Errorf("sim: classes=%d out of [1,%d]", s.Classes, MaxClasses)
	}
	if s.Classes*s.D > M*ClassMemRowsPerMem {
		return fmt.Errorf("sim: nC·D = %d exceeds class-memory capacity %d dims",
			s.Classes*s.D, M*ClassMemRowsPerMem)
	}
	if s.BW != 0 && (s.BW < 1 || s.BW > 16) {
		return fmt.Errorf("sim: bw=%d out of [1,16]", s.BW)
	}
	return nil
}

// Fill returns the fraction of class-memory rows the application occupies —
// the quantity that drives application-opportunistic power gating (§4.3.2).
func (s Spec) Fill() float64 {
	return float64(s.Classes*s.D) / float64(M*ClassMemRowsPerMem)
}

// ActiveBankFrac returns the fraction of class-memory banks that stay
// powered: banks are gated at Banks granularity per memory.
func (s Spec) ActiveBankFrac() float64 {
	return math.Ceil(s.Fill()*Banks) / Banks
}

// Stats accumulates cycle and memory-access counts for a workload.
type Stats struct {
	Cycles int64

	FeatureMemReads  int64 // 8-bit feature fetches
	FeatureMemWrites int64 // input loading
	LevelMemReads    int64 // m-bit level row fetches
	ClassMemReads    int64 // 16-bit class word reads
	ClassMemWrites   int64 // 16-bit class word writes
	IDGenerations    int64 // rotations of the id seed register

	Encodings  int64
	Inferences int64
	Updates    int64 // retrain/cluster class updates

	FaultBits int64 // bits corrupted by fault injection (persistent + transient)
	Scrubs    int64 // scrub-and-repair passes
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Cycles += o.Cycles
	s.FeatureMemReads += o.FeatureMemReads
	s.FeatureMemWrites += o.FeatureMemWrites
	s.LevelMemReads += o.LevelMemReads
	s.ClassMemReads += o.ClassMemReads
	s.ClassMemWrites += o.ClassMemWrites
	s.IDGenerations += o.IDGenerations
	s.Encodings += o.Encodings
	s.Inferences += o.Inferences
	s.Updates += o.Updates
	s.FaultBits += o.FaultBits
	s.Scrubs += o.Scrubs
}

// Seconds converts the cycle count to wall-clock time at the target clock.
func (s Stats) Seconds() float64 { return float64(s.Cycles) / ClockHz }

// Tracer receives the accelerator's activity windows (phase name, start
// cycle, duration); internal/trace provides timeline and VCD renderers.
type Tracer interface {
	Event(name string, start, dur int64)
}

// Accelerator is a GENERIC engine instance: spec, hypervector material
// (level memory + id seed, loaded via the config port), class memories, and
// activity statistics.
type Accelerator struct {
	spec   Spec
	enc    encoding.Encoder
	model  *classifier.Model
	stats  Stats
	tracer Tracer
	lo, hi float64 // level-quantization range (also the input-memory range)
	// scratch
	q hdc.Vec
	// fault state (see fault.go)
	faultCtl *faults.Controller
	inputInj faults.Injector
	inputRNG *rng.Rand
	inputBuf []float64
	dpRate   float64
	dpRNG    *rng.Rand
}

// SetTracer installs an activity tracer (nil disables tracing).
func (a *Accelerator) SetTracer(t Tracer) { a.tracer = t }

// addCycles advances the cycle counter, reporting the window to the tracer.
func (a *Accelerator) addCycles(phase string, n int64) {
	if a.tracer != nil && n > 0 {
		a.tracer.Event(phase, a.stats.Cycles, n)
	}
	a.stats.Cycles += n
}

// New builds an accelerator for the spec with a [0,1] quantization range,
// generating its hypervector material from seed (in hardware the level/id
// memories are loaded through the config port; the seed stands in for that
// content).
func New(spec Spec, seed uint64) (*Accelerator, error) {
	return NewWithRange(spec, seed, 0, 1)
}

// MustNew is New that panics on error.
func MustNew(spec Spec, seed uint64) *Accelerator {
	a, err := New(spec, seed)
	if err != nil {
		panic(err)
	}
	return a
}

// MustNewWithRange is NewWithRange that panics on error.
func MustNewWithRange(spec Spec, seed uint64, lo, hi float64) *Accelerator {
	a, err := NewWithRange(spec, seed, lo, hi)
	if err != nil {
		panic(err)
	}
	return a
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// NewWithRange is New with an explicit level-quantization range.
func NewWithRange(spec Spec, seed uint64, lo, hi float64) (*Accelerator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.BW == 0 {
		spec.BW = 16
	}
	enc, err := encoding.New(encoding.Generic, encoding.Config{
		D: spec.D, Features: spec.Features, Bins: LevelBins,
		Lo: lo, Hi: hi, N: spec.N, UseID: spec.UseID, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	a := &Accelerator{spec: spec, enc: enc, lo: lo, hi: hi, q: hdc.NewVec(spec.D)}
	a.model = classifier.NewModel(spec.D, max2(spec.Classes, 2), spec.BW)
	return a, nil
}

// Spec returns the programmed spec; Stats the accumulated activity;
// Model the class memories' current contents.
func (a *Accelerator) Spec() Spec                { return a.spec }
func (a *Accelerator) Stats() Stats              { return a.stats }
func (a *Accelerator) Model() *classifier.Model  { return a.model }
func (a *Accelerator) ResetStats()               { a.stats = Stats{} }
func (a *Accelerator) Encoder() encoding.Encoder { return a.enc }

// LoadModel loads a trained model through the config port (offline
// training), quantizing it to the spec bit-width when narrower than 16.
func (a *Accelerator) LoadModel(m *classifier.Model) error {
	if m.D() != a.spec.D {
		return fmt.Errorf("sim: model D=%d != spec D=%d", m.D(), a.spec.D)
	}
	if m.Classes() > MaxClasses {
		return fmt.Errorf("sim: model has %d classes > %d", m.Classes(), MaxClasses)
	}
	clone := m.Clone()
	if a.spec.BW < 16 {
		clone.Quantize(a.spec.BW)
	}
	a.model = clone
	// The fault controller holds references into the replaced model; its
	// guard and mask state no longer apply.
	a.faultCtl = nil
	// Loading nC·D words through the config port.
	a.stats.ClassMemWrites += int64(m.Classes()) * int64(a.spec.D)
	return nil
}

// passes is the number of encoder iterations per input: D/m.
func (a *Accelerator) passes() int64 { return int64(a.spec.D / M) }

// loadInput accounts for reading one input element-by-element from the
// serial port into the input memory.
func (a *Accelerator) loadInput() {
	d := int64(a.spec.Features)
	a.addCycles("load", d)
	a.stats.FeatureMemWrites += d
}

// encodeCycles accounts one full encoding of the stored input: D/m passes,
// each streaming the d feature rows through the window pipeline.
// overlapped gives the per-pass cycles of a unit running concurrently with
// the encoder (e.g. the nC-cycle dot-product drain); the pass takes the
// slower of the two.
func (a *Accelerator) encodeCycles(overlapped int64) {
	d := int64(a.spec.Features)
	per := d
	if overlapped > per {
		per = overlapped
	}
	p := a.passes()
	a.addCycles("encode", p*(per+PipelineFill))
	a.stats.FeatureMemReads += p * d
	a.stats.LevelMemReads += p * d
	if a.spec.UseID {
		a.stats.IDGenerations += p * int64(a.spec.Features-a.spec.N+1) / M
	}
	a.stats.Encodings++
}

// encode performs the functional encoding into a.q. With an input-memory
// fault armed, the sample first round-trips through the 8-bit input memory
// with the injector corrupting the stored codes (transient: the next load
// overwrites them).
func (a *Accelerator) encode(x []float64) {
	if a.inputInj != nil {
		a.stats.FaultBits += int64(faults.CorruptFeatures(a.inputBuf, x, a.lo, a.hi, a.inputInj, a.inputRNG))
		x = a.inputBuf
	}
	a.enc.Encode(x, a.q)
}

// scoreAll computes the hardware similarity of the current encoding against
// every class: pipelined dot products plus the Mitchell divider, returning
// the argmax. Dot products overlap encoding, so only the divider and argmax
// add cycles here; the per-pass MAC cost is carried by encodeCycles's
// overlapped argument.
func (a *Accelerator) scoreAll() int {
	nC := a.model.Classes()
	best, bestScore := 0, int64(math.MinInt64)
	for c := 0; c < nC; c++ {
		dot := a.q.Dot(a.model.Class(c))
		if a.dpRNG != nil && a.dpRate > 0 && a.dpRNG.Float64() < a.dpRate {
			// Transient adder-tree upset: one bit of the accumulated dot
			// flips. Low datapathBits bits only — upsets hit individual
			// full-adder outputs, not the final sign logic.
			dot ^= int64(1) << uint(a.dpRNG.Intn(datapathBits))
			a.stats.FaultBits++
		}
		s := approx.ScoreApprox(dot, a.model.Norm2(c))
		if s > bestScore {
			best, bestScore = c, s
		}
	}
	a.stats.ClassMemReads += int64(nC) * int64(a.spec.D)
	a.addCycles("search", 2*int64(nC)) // divider + max compare
	return best
}

// Infer classifies one input, returning the predicted class.
func (a *Accelerator) Infer(x []float64) int {
	a.loadInput()
	a.encode(x)
	a.encodeCycles(int64(a.model.Classes())) // dot drain overlaps encoding
	pred := a.scoreAll()
	a.stats.Inferences++
	return pred
}

// InferAll classifies a batch and returns predictions.
func (a *Accelerator) InferAll(X [][]float64) []int {
	out := make([]int, len(X))
	for i, x := range X {
		out[i] = a.Infer(x)
	}
	return out
}

// updateClass accounts a retraining-style read-modify-write of one class:
// 3·D/m cycles (§4.2.2) plus the word traffic.
func (a *Accelerator) updateClassCycles() {
	a.addCycles("update", 3*a.passes())
	a.stats.ClassMemReads += int64(a.spec.D)
	a.stats.ClassMemWrites += int64(a.spec.D)
	a.stats.Updates++
}

// TrainInit performs the first training round: every encoded input is
// accumulated into its class hypervector (Fig. 1a), then squared norms are
// computed into the norm2 memory.
func (a *Accelerator) TrainInit(X [][]float64, Y []int) {
	a.invalidateGuard()
	for i, x := range X {
		a.loadInput()
		a.encode(x)
		a.encodeCycles(0)
		// Accumulate into the class rows as dimensions stream out:
		// read-add-write per pass, 2 extra cycles per pass.
		a.addCycles("bundle", 2*a.passes())
		a.stats.ClassMemReads += int64(a.spec.D)
		a.stats.ClassMemWrites += int64(a.spec.D)
		a.model.AddEncoded(a.q, Y[i])
	}
	a.normPass()
}

// normPass accounts computing ‖C‖² for all classes (§4.2.2).
func (a *Accelerator) normPass() {
	nC := int64(a.model.Classes())
	a.addCycles("norm", nC*a.passes())
	a.stats.ClassMemReads += nC * int64(a.spec.D)
}

// RetrainEpoch performs one retraining pass (Fig. 1c): inference on each
// training input; on misprediction the encoded vector (kept in the class
// memories' temporary rows) is subtracted from the wrong class and added to
// the right one. It returns the number of updates.
func (a *Accelerator) RetrainEpoch(X [][]float64, Y []int) int {
	a.invalidateGuard()
	updates := 0
	for i, x := range X {
		a.loadInput()
		a.encode(x)
		a.encodeCycles(int64(a.model.Classes()))
		// Encoded dims are stored to temporary rows while scoring.
		a.stats.ClassMemWrites += int64(a.spec.D)
		pred := a.scoreAll()
		a.stats.Inferences++
		if pred != Y[i] {
			a.model.Update(a.q, Y[i], pred)
			a.updateClassCycles() // subtract from mispredicted class
			a.updateClassCycles() // add to correct class
			updates++
		}
	}
	a.normPass()
	return updates
}

// Train runs initialization plus epochs retraining passes (the paper uses a
// constant 20) and returns the final-epoch update count.
func (a *Accelerator) Train(X [][]float64, Y []int, epochs int) int {
	a.TrainInit(X, Y)
	last := 0
	for e := 0; e < epochs; e++ {
		last = a.RetrainEpoch(X, Y)
		if last == 0 {
			break
		}
	}
	return last
}

// ClusterFit runs k-centroid HDC clustering (§4.2.3) for the given epochs
// and returns the final assignments. The spec's Classes field is the k.
func (a *Accelerator) ClusterFit(X [][]float64, epochs int) []int {
	k := a.spec.Classes
	if len(X) < k {
		panic(fmt.Sprintf("sim: clustering needs at least k=%d inputs", k))
	}
	d := a.spec.D
	// Seed centroids with the first k encodings.
	centroids := make([]hdc.Vec, k)
	norms := make([]int64, k)
	for c := 0; c < k; c++ {
		a.loadInput()
		a.encode(X[c])
		a.encodeCycles(0)
		centroids[c] = a.q.Clone()
		a.stats.ClassMemWrites += int64(d)
	}
	refresh := func() {
		for c := range centroids {
			norms[c] = centroids[c].Norm2()
		}
		a.addCycles("norm", int64(k)*a.passes())
		a.stats.ClassMemReads += int64(k) * int64(d)
	}
	refresh()
	assign := make([]int, len(X))
	for e := 0; e < epochs; e++ {
		copies := make([]hdc.Vec, k)
		counts := make([]int, k)
		for c := range copies {
			copies[c] = hdc.NewVec(d)
		}
		for i, x := range X {
			a.loadInput()
			a.encode(x)
			a.encodeCycles(int64(k))
			a.stats.ClassMemWrites += int64(d) // stash encoding in temp rows
			best, bestScore := 0, int64(math.MinInt64)
			for c := 0; c < k; c++ {
				s := approx.ScoreApprox(a.q.Dot(centroids[c]), norms[c])
				if s > bestScore {
					best, bestScore = c, s
				}
			}
			a.stats.ClassMemReads += int64(k) * int64(d)
			a.addCycles("search", 2*int64(k))
			assign[i] = best
			copies[best].AddInto(a.q)
			counts[best]++
			a.updateClassCycles() // add stored encoding to the copy centroid
		}
		for c := range centroids {
			if counts[c] > 0 {
				centroids[c] = copies[c]
			}
		}
		refresh()
	}
	// Final assignment against the final model.
	for i, x := range X {
		a.loadInput()
		a.encode(x)
		a.encodeCycles(int64(k))
		best, bestScore := 0, int64(math.MinInt64)
		for c := 0; c < k; c++ {
			s := approx.ScoreApprox(a.q.Dot(centroids[c]), norms[c])
			if s > bestScore {
				best, bestScore = c, s
			}
		}
		a.stats.ClassMemReads += int64(k) * int64(d)
		a.addCycles("search", 2*int64(k))
		assign[i] = best
		a.stats.Inferences++
	}
	return assign
}
