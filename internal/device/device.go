// Package device models the conventional platforms the paper measures HDC
// and classical ML on (§3.3, Figs. 3/8/9/10): a Raspberry Pi 3 embedded
// processor, a desktop CPU (Intel i7-8700), and an NVIDIA Jetson TX2
// low-power edge GPU — plus reference models of the two prior HDC ASICs of
// Fig. 9 (tiny-HD [8] and the Datta et al. programmable HD processor [10]).
//
// The models are deliberately simple and fully documented: a workload is a
// vector of operation counts (bit-packed word ops, integer MACs, float
// MACs, memory traffic) counted exactly from this repository's own
// implementations; a device turns counts into latency via calibrated
// effective throughputs and into energy via its average active power. The
// throughput constants are calibrated so the *relative* positions of the
// paper's Figure 3 reproduce (HDC costs more than classical ML on every
// conventional device; the eGPU's bit-packing makes it the most efficient
// conventional home for HDC by ~2 orders of magnitude over the Pi);
// absolute numbers are indicative only — see EXPERIMENTS.md.
package device

import (
	"github.com/edge-hdc/generic/internal/encoding"
)

// Ops counts the work of a workload, split by execution resource.
type Ops struct {
	Packed   int64 // 64-bit word operations (XOR/popcount/shift on packed HVs)
	Int      int64 // scalar/SIMD integer MACs (16/32-bit)
	Float    int64 // floating-point MACs
	MemBytes int64 // bulk memory traffic beyond cache
}

// Add accumulates o into p.
func (p *Ops) Add(o Ops) {
	p.Packed += o.Packed
	p.Int += o.Int
	p.Float += o.Float
	p.MemBytes += o.MemBytes
}

// Scale multiplies all counts by k (for per-sample → per-batch conversion).
func (p Ops) Scale(k int64) Ops {
	return Ops{Packed: p.Packed * k, Int: p.Int * k, Float: p.Float * k, MemBytes: p.MemBytes * k}
}

// Device is a conventional execution platform.
type Device struct {
	Name string
	// ActivePowerW is the measured average power drawn while running these
	// workloads (wall power for the Pi per the paper's Hioki meter setup;
	// package power for CPU/eGPU).
	ActivePowerW float64
	// Effective sustained throughputs for each resource. These fold in all
	// software inefficiency (interpreter overhead, memory stalls, limited
	// parallel occupancy), which is why they sit far below datasheet peaks.
	PackedOpsPerSec float64
	IntOpsPerSec    float64
	FloatOpsPerSec  float64
	MemBytesPerSec  float64
	// LoopOverheadS is the per-sample-presentation software overhead of
	// iterative fitting loops (interpreter dispatch, library call setup) —
	// the dominant cost of scikit-learn-style k-means on small datasets,
	// which the paper's §5.3 measurements reflect. Batched inference paths
	// amortize this to ~zero and do not pay it.
	LoopOverheadS float64
	// InferOverheadS is the residual per-query overhead of a batched
	// inference call (dispatch, result marshalling, kernel launch on the
	// eGPU). It dominates the cost of very cheap models like random-forest
	// prediction.
	InferOverheadS float64
}

// The three platforms of §3.3.
var (
	RaspberryPi = Device{
		Name:            "Raspberry Pi",
		ActivePowerW:    3.7,
		PackedOpsPerSec: 0.15e9,
		IntOpsPerSec:    0.40e9,
		FloatOpsPerSec:  0.30e9,
		MemBytesPerSec:  0.8e9,
		LoopOverheadS:   13e-6,
		InferOverheadS:  2e-6,
	}
	CPU = Device{
		Name:            "CPU",
		ActivePowerW:    45,
		PackedOpsPerSec: 8e9,
		IntOpsPerSec:    5e9,
		FloatOpsPerSec:  40e9,
		MemBytesPerSec:  15e9,
		LoopOverheadS:   7e-6,
		InferOverheadS:  0.1e-6,
	}
	EGPU = Device{
		Name:            "eGPU",
		ActivePowerW:    7.5,
		PackedOpsPerSec: 80e9,
		IntOpsPerSec:    60e9,
		FloatOpsPerSec:  30e9,
		MemBytesPerSec:  30e9,
		LoopOverheadS:   0.1e-6,
		InferOverheadS:  0.2e-6,
	}
)

// Devices lists the conventional platforms in the paper's order.
func Devices() []Device { return []Device{RaspberryPi, CPU, EGPU} }

// Run converts an op-count workload into latency (s) and energy (J).
func (d Device) Run(ops Ops) (seconds, joules float64) {
	seconds = float64(ops.Packed)/d.PackedOpsPerSec +
		float64(ops.Int)/d.IntOpsPerSec +
		float64(ops.Float)/d.FloatOpsPerSec +
		float64(ops.MemBytes)/d.MemBytesPerSec
	return seconds, seconds * d.ActivePowerW
}

// RunLoop is Run for iterative fitting workloads: it adds the per-sample
// loop overhead for the given number of sample presentations.
func (d Device) RunLoop(ops Ops, presentations int64) (seconds, joules float64) {
	seconds, _ = d.Run(ops)
	seconds += float64(presentations) * d.LoopOverheadS
	return seconds, seconds * d.ActivePowerW
}

// RunInference is Run for one batched-inference query: it adds the
// per-query dispatch overhead once.
func (d Device) RunInference(ops Ops) (seconds, joules float64) {
	seconds, _ = d.Run(ops)
	seconds += d.InferOverheadS
	return seconds, seconds * d.ActivePowerW
}

// ---------------------------------------------------------------------------
// HDC op counting. Counts follow the bit-packed software implementations in
// internal/encoding and internal/classifier exactly.

// HDCParams describes an HDC configuration for op counting.
type HDCParams struct {
	Kind     encoding.Kind
	D        int // dimensionality
	Features int // d
	N        int // window length (Ngram/Generic)
	Classes  int
	UseID    bool
}

func (p HDCParams) words() int64 { return int64(p.D) / 64 }

// EncodeOps counts one input encoding.
func (p HDCParams) EncodeOps() Ops {
	w := p.words()
	switch p.Kind {
	case encoding.RP:
		// Dense float projection: d·D MACs plus the sign pass.
		return Ops{Float: int64(p.Features)*int64(p.D) + int64(p.D)}
	case encoding.LevelID, encoding.Permute:
		// Per feature: one XOR-or-rotate over D bits + bundling add
		// (bit-sliced: ~4 word ops per vector).
		return Ops{Packed: int64(p.Features) * w * 6, Int: int64(p.Features)}
	case encoding.Ngram, encoding.Generic:
		windows := int64(p.Features - p.N + 1)
		perWindow := int64(p.N) + 4 // n XORs (+1 id XOR) + bundling
		if p.UseID {
			perWindow++
		}
		return Ops{Packed: windows * perWindow * w, Int: int64(p.Features)}
	}
	return Ops{}
}

// InferOps counts one query: encode + nC dot products + score/argmax.
func (p HDCParams) InferOps() Ops {
	o := p.EncodeOps()
	o.Int += int64(p.Classes) * int64(p.D) // integer MACs against classes
	o.Int += int64(p.Classes) * 4          // normalization + compare
	return o
}

// TrainOps counts HDC training: encode the training set once (encodings are
// cached), bundle, then retrain for epochs passes of predict+update.
func (p HDCParams) TrainOps(nTrain, epochs int) Ops {
	var o Ops
	o.Add(p.EncodeOps().Scale(int64(nTrain)))
	o.Int += int64(nTrain) * int64(p.D) // initial bundling
	perPredict := int64(p.Classes)*int64(p.D) + int64(p.Classes)*4
	updates := int64(nTrain) / 5 // ~20% mispredictions on average
	perEpoch := int64(nTrain)*perPredict + updates*2*int64(p.D)
	o.Int += int64(epochs) * perEpoch
	return o
}

// ---------------------------------------------------------------------------
// Classical-ML op counting: the callers compute a baseline's inference
// count from its shape (internal/experiments), and training counts use
// standard complexity formulas.

// MLInferOps wraps a baseline's per-query operation count as float work.
func MLInferOps(inferenceOps int64) Ops {
	return Ops{Float: inferenceOps}
}

// MLTrainParams describes a classical training job.
type MLTrainParams struct {
	Samples  int
	Features int
	Classes  int
}

// ForestTrainOps estimates CART forest training: per tree, per depth level,
// a sort-based split scan over the bootstrap sample and √d features.
func (p MLTrainParams) ForestTrainOps(trees, maxFeatures, avgDepth int) Ops {
	if maxFeatures <= 0 {
		maxFeatures = isqrt(p.Features)
	}
	if avgDepth <= 0 {
		avgDepth = log2int(p.Samples)
	}
	perTree := int64(p.Samples) * int64(log2int(p.Samples)) * int64(maxFeatures) * int64(avgDepth)
	return Ops{Float: int64(trees) * perTree * 3}
}

// SVMTrainOps estimates one-vs-rest Pegasos training.
func (p MLTrainParams) SVMTrainOps(epochs int) Ops {
	return Ops{Float: int64(p.Classes) * int64(epochs) * int64(p.Samples) * int64(p.Features) * 4}
}

// LRTrainOps estimates softmax-SGD logistic regression training.
func (p MLTrainParams) LRTrainOps(epochs int) Ops {
	return Ops{Float: int64(epochs) * int64(p.Samples) * int64(p.Features) * int64(p.Classes) * 4}
}

// MLPTrainOps estimates backprop training: ~6 MACs per weight per sample
// per epoch (forward, backward, update).
func (p MLTrainParams) MLPTrainOps(weights int64, epochs int) Ops {
	return Ops{Float: weights * int64(p.Samples) * int64(epochs) * 6}
}

// KMeansOps counts Lloyd's algorithm: per iteration, n·k·d distance MACs
// plus the centroid update.
func KMeansOps(n, k, d, iters int) Ops {
	per := int64(n)*int64(k)*int64(d)*3 + int64(n)*int64(d)
	return Ops{Float: int64(iters) * per}
}

func isqrt(x int) int {
	r := 0
	for (r+1)*(r+1) <= x {
		r++
	}
	return r
}

func log2int(x int) int {
	n := 0
	for x > 1 {
		x >>= 1
		n++
	}
	if n == 0 {
		return 1
	}
	return n
}

// Prior HDC ASICs (Fig. 9) are modeled architecturally: tiny-HD [8] in
// internal/tinyhd (4-bit inference-only memories) and the Datta et al.
// programmable HD processor [10] in internal/hdproc (an executable
// vector-processor model).
