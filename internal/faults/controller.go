package faults

import (
	"errors"
	"fmt"

	"github.com/edge-hdc/generic/internal/classifier"
	"github.com/edge-hdc/generic/internal/encoding"
	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/perf"
	"github.com/edge-hdc/generic/internal/rng"
	"github.com/edge-hdc/generic/internal/telemetry"
)

// ErrNoIDMemory is returned when a SiteID spec targets an encoder without id
// binding (RP, permutation, plain ngram, or GENERIC with UseID=false).
var ErrNoIDMemory = errors.New("faults: encoder has no id memory")

// ErrEncoderNotFaultable is returned when a level/id spec targets an encoder
// that does not expose its hypervector material (e.g. RP, which has no
// Fig. 4 level memory).
var ErrEncoderNotFaultable = errors.New("faults: encoder does not expose fault-injectable material")

// Controller owns persistent-fault state for one model/encoder pair: it
// injects faults into the persistent memories, keeps the class-memory CRC
// guard, and runs the scrub-and-repair pass. It is not safe for concurrent
// use — like training, fault management requires exclusive access.
type Controller struct {
	model *classifier.Model
	enc   encoding.Faultable // nil when the encoder has no faultable material

	guard        *Guard
	injectedBits int
	pending      int // injections since the last scrub
	quarantined  int
	masked       [Lanes]bool
	history      []string
}

// NewController builds a controller for the model and encoder. A nil or
// non-Faultable encoder limits injection to the class and norm memories.
func NewController(m *classifier.Model, enc encoding.Encoder) *Controller {
	c := &Controller{model: m}
	if f, ok := enc.(encoding.Faultable); ok {
		c.enc = f
	}
	return c
}

// CloneFor returns a controller carrying this controller's accumulated
// fault state — guard CRCs, injected/pending counters, masked lanes,
// quarantine totals, and history — rebound to a cloned model/encoder pair.
// The serving layer's clone-modify-publish protocol uses it so that a
// published snapshot remembers which banks are dead and which corruption a
// scrub has not yet seen, rather than resetting fault bookkeeping on every
// publish. It copies no memory: the guard is immutable once built (a scrub
// builds a new one), and the history is shared with its capacity capped,
// so the first append on either side copies it.
func (c *Controller) CloneFor(m *classifier.Model, enc encoding.Encoder) *Controller {
	n := &Controller{
		model:        m,
		guard:        c.guard,
		injectedBits: c.injectedBits,
		pending:      c.pending,
		quarantined:  c.quarantined,
		masked:       c.masked,
		history:      c.history[:len(c.history):len(c.history)],
	}
	if f, ok := enc.(encoding.Faultable); ok {
		n.enc = f
	}
	return n
}

// InvalidateGuard drops the class-memory CRC reference. Call after any
// legitimate model mutation (training, quantization, adaptation, model
// load); the guard re-snapshots lazily before the next class injection.
func (c *Controller) InvalidateGuard() { c.guard = nil }

// ensureGuard snapshots the CRC reference if none is active. It must run
// before class-memory corruption so Scrub can tell faults from legitimate
// state.
func (c *Controller) ensureGuard() {
	if c.guard == nil {
		c.guard = NewGuard(c.model)
	}
}

// Inject applies one fault spec to its target memory and returns the number
// of bits changed. Class injection refreshes norms afterwards (the stored
// norms track the corrupted vectors, as in Fig. 6's VOS model); norm
// injection deliberately leaves the stale/corrupt value in place. Input and
// datapath specs return ErrTransientSite — route them through the sim.
func (c *Controller) Inject(spec Spec) (int, error) {
	inj, err := spec.Injector()
	if err != nil {
		return 0, err
	}
	r := rng.New(spec.Seed)
	var n int
	switch spec.Site {
	case SiteClass:
		c.ensureGuard()
		n = inj.Apply(ClassMem(c.model), r)
		c.model.RefreshAllNorms()
	case SiteLevel:
		if c.enc == nil {
			return 0, ErrEncoderNotFaultable
		}
		n = inj.Apply(BitRowsMem(c.enc.LevelRows()), r)
		c.enc.RebuildDerived()
	case SiteID:
		if c.enc == nil {
			return 0, ErrEncoderNotFaultable
		}
		seed := c.enc.IDSeed()
		if seed == nil {
			return 0, ErrNoIDMemory
		}
		n = inj.Apply(BitRowsMem([]*hdc.BinVec{seed}), r)
		c.enc.RebuildDerived()
	case SiteNorm:
		n = inj.Apply(NormMem(c.model), r)
	case SiteInput, SiteDatapath:
		return 0, ErrTransientSite
	default:
		return 0, fmt.Errorf("faults: invalid site %d", int(spec.Site))
	}
	c.injectedBits += n
	c.pending++
	c.history = append(c.history, spec.String())
	telemetry.FaultInjections.Inc()
	telemetry.FaultBits.Add(int64(n))
	telemetry.FaultPending.Set(int64(c.pending))
	return n, nil
}

// ScrubReport summarizes one scrub-and-repair pass.
type ScrubReport struct {
	// EncoderRegenerated reports whether level/id material was rebuilt from
	// the config seed (always true when the encoder is faultable — the
	// hardware regenerates unconditionally because it is cheaper than
	// checking).
	EncoderRegenerated bool
	// RowsChecked is the number of (class, lane) columns CRC-verified.
	RowsChecked int
	// BadRows is the number of columns whose CRC mismatched.
	BadRows int
	// LanesMasked is how many lanes were newly declared dead (bad in more
	// than half the classes) and masked out of the dot product.
	LanesMasked int
	// QuarantinedRows is the number of isolated bad columns zeroed out.
	QuarantinedRows int
	// ToleratedRows is the number of bad columns left in place because the
	// corruption was widespread: when more than half of all columns fail
	// their CRC, the errors are VOS-style uniform soft errors (Fig. 6), and
	// HDC's inherent tolerance beats any detection-only repair — zeroing
	// most of the memory would destroy the model to remove noise it can
	// absorb.
	ToleratedRows int
}

func (r ScrubReport) String() string {
	return fmt.Sprintf("scrub: %d/%d columns bad, %d lanes masked, %d rows quarantined, %d tolerated, encoder regenerated=%v",
		r.BadRows, r.RowsChecked, r.LanesMasked, r.QuarantinedRows, r.ToleratedRows, r.EncoderRegenerated)
}

// Scrub runs the detection-and-repair pass:
//
//  1. Level/id memories self-heal by regeneration from the stored seed —
//     after this step the encoder is bit-identical to a freshly built one.
//  2. Every unmasked (class, lane) column is CRC-checked. If more than
//     half of all columns mismatch, the corruption is widespread — the
//     VOS-style uniform soft errors of Fig. 6 — and repair stands down:
//     HDC absorbs distributed bit noise, while zeroing most of the memory
//     would not. Otherwise a lane bad in more than half the classes is a
//     dead bank: its dimensions are masked out of every class (DistHD-style
//     dimension drop) and the dot product renormalizes over the survivors;
//     remaining isolated bad columns are unrecoverable under a
//     detection-only code and are quarantined (zeroed), which the modified
//     cosine treats as "no evidence".
//  3. Norms are recomputed from the (repaired) class vectors — this also
//     repairs any norm2-memory corruption — and the guard resyncs.
//
// Without an active guard (nothing injected since the last legitimate
// mutation) the class memory is trusted as-is; step 3 still runs.
func (c *Controller) Scrub() ScrubReport {
	start := telemetry.Now()
	sp := perf.Begin("faults.scrub")
	defer sp.End()
	var rep ScrubReport
	if c.enc != nil {
		c.enc.Regenerate()
		rep.EncoderRegenerated = true
	}
	if c.guard != nil {
		nC := c.model.Classes()
		var bad [Lanes][]int // bad[lane] = classes whose column mismatched
		for lane := 0; lane < Lanes; lane++ {
			if c.masked[lane] {
				continue
			}
			for cls := 0; cls < nC; cls++ {
				rep.RowsChecked++
				if !c.guard.Check(c.model, cls, lane) {
					bad[lane] = append(bad[lane], cls)
				}
			}
		}
		for lane := 0; lane < Lanes; lane++ {
			rep.BadRows += len(bad[lane])
		}
		if rep.BadRows*2 > rep.RowsChecked {
			// Widespread soft errors: tolerate rather than destroy.
			rep.ToleratedRows = rep.BadRows
		} else {
			for lane := 0; lane < Lanes; lane++ {
				nBad := len(bad[lane])
				if nBad == 0 {
					continue
				}
				if nBad*2 > nC {
					c.model.MaskDims(lane, Lanes)
					c.masked[lane] = true
					rep.LanesMasked++
					continue
				}
				for _, cls := range bad[lane] {
					cv := c.model.MutableClass(cls)
					for i := lane; i < c.model.D(); i += Lanes {
						cv[i] = 0
					}
					c.quarantined++
					rep.QuarantinedRows++
				}
			}
		}
	}
	c.model.RefreshAllNorms()
	c.guard = NewGuard(c.model)
	c.pending = 0
	telemetry.Scrubs.Inc()
	telemetry.FaultPending.Set(0)
	telemetry.FaultMaskedLanes.Set(int64(c.MaskedLaneCount()))
	telemetry.ScrubNS.ObserveSince(start)
	return rep
}

// Health is a point-in-time summary of the controller's fault state.
type Health struct {
	// GuardActive reports whether a class-memory CRC reference is live.
	GuardActive bool
	// InjectedBits counts bits changed by every persistent injection so far.
	InjectedBits int
	// QuarantinedRows counts (class, lane) columns zeroed across all scrubs.
	QuarantinedRows int
	// PendingFaults counts injections applied since the last scrub — the
	// corruption a scrub-and-repair pass has not yet seen.
	PendingFaults int
	// MaskedLanes lists dead class-memory banks in ascending order.
	MaskedLanes []int
	// EffectiveDims is the dimensionality still contributing to scores
	// after lane masking.
	EffectiveDims int
	// Faults is the history of injected specs, oldest first.
	Faults []string
}

func (h Health) String() string {
	return fmt.Sprintf("faults=%d bits=%d pending=%d maskedLanes=%v effectiveD=%d quarantined=%d guard=%v",
		len(h.Faults), h.InjectedBits, h.PendingFaults, h.MaskedLanes, h.EffectiveDims, h.QuarantinedRows, h.GuardActive)
}

// Degraded reports whether the engine is running with known or suspected
// damage: unscrubbed injections, dead (masked) banks, or quarantined columns.
// Serving layers map this to a not-ready health status.
func (h Health) Degraded() bool {
	return h.PendingFaults > 0 || len(h.MaskedLanes) > 0 || h.QuarantinedRows > 0
}

// Health reports the current fault state.
func (c *Controller) Health() Health {
	h := Health{
		GuardActive:     c.guard != nil,
		InjectedBits:    c.injectedBits,
		PendingFaults:   c.pending,
		QuarantinedRows: c.quarantined,
		Faults:          append([]string(nil), c.history...),
	}
	nMasked := 0
	for lane := 0; lane < Lanes; lane++ {
		if c.masked[lane] {
			h.MaskedLanes = append(h.MaskedLanes, lane)
			nMasked++
		}
	}
	h.EffectiveDims = c.model.D() / Lanes * (Lanes - nMasked)
	return h
}

// MaskedLaneCount returns how many class-memory banks are currently masked,
// for the power model's bank accounting.
func (c *Controller) MaskedLaneCount() int {
	n := 0
	for lane := 0; lane < Lanes; lane++ {
		if c.masked[lane] {
			n++
		}
	}
	return n
}
