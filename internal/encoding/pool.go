package encoding

import (
	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/parallel"
	"github.com/edge-hdc/generic/internal/perf"
	"github.com/edge-hdc/generic/internal/telemetry"
)

// Pool is a set of functionally identical encoders for concurrent batch
// encoding. Individual encoders carry scratch state and are not safe for
// concurrent use; a Pool builds one encoder per worker from the same
// configuration (hence identical hypervector material — the outputs are
// bit-identical to sequential encoding).
type Pool struct {
	encs []Encoder
}

// NewPool builds a pool of workers encoders (≤ 0 means GOMAXPROCS).
func NewPool(kind Kind, cfg Config, workers int) (*Pool, error) {
	workers = parallel.Workers(workers)
	p := &Pool{}
	for i := 0; i < workers; i++ {
		e, err := New(kind, cfg)
		if err != nil {
			return nil, err
		}
		p.encs = append(p.encs, e)
	}
	return p, nil
}

// NewPoolFrom builds a pool of workers encoders cloned from e. Library
// encoders implement MaterialCloner, so clones share e's *current* material
// — including any fault-layer corruption — and pool outputs are
// bit-identical to encoding with e itself. Foreign encoders fall
// back to reconstruction from Kind and Config, whose contract guarantees
// identical pristine material.
func NewPoolFrom(e Encoder, workers int) (*Pool, error) {
	mc, ok := e.(MaterialCloner)
	if !ok {
		return NewPool(e.Kind(), e.Config(), workers)
	}
	workers = parallel.Workers(workers)
	p := &Pool{}
	for i := 0; i < workers; i++ {
		p.encs = append(p.encs, mc.CloneMaterial())
	}
	return p, nil
}

// Workers reports the pool size; D the encoders' dimensionality.
func (p *Pool) Workers() int { return len(p.encs) }
func (p *Pool) D() int       { return p.encs[0].D() }

// EncodeAll encodes every row of X concurrently — contiguous chunks of the
// batch, one per pool encoder — and returns the hypervectors in input
// order. Results are identical to sequential EncodeAll with any of the
// pool's encoders.
func (p *Pool) EncodeAll(X [][]float64) []hdc.Vec {
	sp := perf.Begin("encode.batch")
	defer sp.End()
	telemetry.EncodeBatches.Inc()
	telemetry.EncodeBatchSamples.Add(int64(len(X)))
	out := make([]hdc.Vec, len(X))
	parallel.For(len(p.encs), len(X), func(worker, i int) {
		enc := p.encs[worker]
		v := hdc.NewVec(enc.D())
		enc.Encode(X[i], v)
		out[i] = v
	})
	return out
}

// EncodeAllWorkers encodes X with workers parallel encoders cloned from e
// (workers ≤ 0 means GOMAXPROCS). It is the batch-first form of EncodeAll:
// serial encoding with e when a single worker suffices (or the batch is too
// small to amortize cloning the encoder material), a transient Pool
// otherwise. Outputs are bit-identical either way.
func EncodeAllWorkers(e Encoder, X [][]float64, workers int) []hdc.Vec {
	w := parallel.Workers(workers)
	if w > len(X) {
		w = len(X)
	}
	if w <= 1 || len(X) < 2*w {
		return EncodeAll(e, X)
	}
	p, err := NewPoolFrom(e, w)
	if err != nil {
		// The configuration built e, so cloning cannot fail for library
		// encoders; a foreign Encoder whose Config does not round-trip
		// falls back to the serial path.
		return EncodeAll(e, X)
	}
	return p.EncodeAll(X)
}
