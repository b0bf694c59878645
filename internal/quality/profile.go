// Drift detection: a reference Profile captured at Fit/Binarize time, a
// PSI-style divergence against the rolling window, and a hysteresis-guarded
// Detector that turns sustained divergence into a drift alarm for the serve
// health machine.
package quality

import (
	"math"
	"sync"

	"github.com/edge-hdc/generic/internal/telemetry"
)

// A Profile is a reference distribution of predict behavior: the bucketed
// margin distribution and the class priors, both normalized to sum to one
// over their populated mass. Captured from calibration data at Fit/Binarize
// (Pipeline.captureProfile) or bootstrapped from the first healthy serving
// window (ProfileFromStats).
type Profile struct {
	Mode       string // "exact" or "binary" — margins are not comparable across modes
	Samples    int
	MeanMargin float64
	Margin     [MarginBuckets]float64
	Priors     [ClassSlots]float64
}

// BuildProfile builds a reference profile from per-sample margins and labels
// (labels may be shorter or empty; priors then cover what is present).
func BuildProfile(margins []float64, labels []int, mode string) *Profile {
	p := &Profile{Mode: mode, Samples: len(margins)}
	if len(margins) > 0 {
		for _, m := range margins {
			p.Margin[MarginBucket(m)]++
			p.MeanMargin += m
		}
		p.MeanMargin /= float64(len(margins))
		for i := range p.Margin {
			p.Margin[i] /= float64(len(margins))
		}
	}
	if len(labels) > 0 {
		for _, l := range labels {
			p.Priors[classSlot(l)]++
		}
		for i := range p.Priors {
			p.Priors[i] /= float64(len(labels))
		}
	}
	return p
}

// ProfileFromStats derives a profile from a window aggregate — the bootstrap
// path when a loaded model carries no calibration data: the first full
// serving window becomes the baseline.
func ProfileFromStats(st *Stats, mode string) *Profile {
	p := &Profile{Mode: mode}
	p.fill(st)
	return p
}

// fill sets p's sample count, mean margin and distributions from st, both
// distributions normalized by Predicts (zero when st is empty).
func (p *Profile) fill(st *Stats) {
	p.Samples = int(st.Predicts)
	p.MeanMargin = st.MeanMargin()
	if st.Predicts == 0 {
		return
	}
	n := float64(st.Predicts)
	for i := range p.Margin {
		p.Margin[i] = float64(st.Buckets[i]) / n
	}
	for i := range p.Priors {
		p.Priors[i] = float64(st.Classes[i]) / n
	}
}

// psiFloor is the smoothing floor applied to both distributions before the
// log-ratio: empty buckets must not blow the divergence up to infinity.
const psiFloor = 1e-4

// psi computes the Population Stability Index between a reference and a
// current distribution of equal length: Σ (q−p)·ln(q/p), floored at psiFloor
// per cell. Symmetric in sign structure, always >= 0. Conventional reading:
// < 0.1 stable, 0.1–0.25 moderate shift, > 0.25 drifted.
func psi(ref, cur []float64) float64 {
	var s float64
	for i := range ref {
		p, q := ref[i], cur[i]
		if p < psiFloor {
			p = psiFloor
		}
		if q < psiFloor {
			q = psiFloor
		}
		s += (q - p) * math.Log(q/p)
	}
	return s
}

// A Verdict is the outcome of one Detector.Check.
type Verdict struct {
	Checked   bool    // false: no reference yet or window under MinSamples
	PSI       float64 // max of the two divergences below
	MarginPSI float64 // margin-distribution divergence
	ClassPSI  float64 // prediction-mix vs class-priors divergence
	Active    bool    // alarm state after this check
	Tripped   bool    // this check transitioned the alarm off→on
}

// A Detector compares rolling windows against a reference profile with
// hysteresis: the alarm trips after Need consecutive checks at or above
// TripPSI and clears after Need consecutive checks at or below ClearPSI;
// anything between holds the current state (and resets both streaks), so a
// distribution hovering at the threshold cannot flap. Windows with fewer
// than MinSamples predicts are skipped entirely — small windows make PSI
// noise, not signal.
//
// All methods are safe for concurrent use; Check is expected from one
// monitor goroutine.
type Detector struct {
	TripPSI    float64
	ClearPSI   float64
	Need       int
	MinSamples int64

	mu      sync.Mutex
	ref     *Profile
	over    int
	under   int
	active  bool
	lastPSI float64
	checks  int64
	trips   int64
}

// NewDetector returns a detector over ref (nil: bootstrap later via SetRef)
// with conventional defaults: trip at PSI 0.25, clear at 0.1, three
// consecutive windows of at least 64 predicts each way.
func NewDetector(ref *Profile) *Detector {
	return &Detector{TripPSI: 0.25, ClearPSI: 0.1, Need: 3, MinSamples: 64, ref: ref}
}

// Ref returns the current reference profile (nil before bootstrap).
func (d *Detector) Ref() *Profile {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ref
}

// SetRef installs a new reference profile and resets the alarm state.
func (d *Detector) SetRef(p *Profile) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ref = p
	d.over, d.under = 0, 0
	d.active = false
	telemetry.QualityDriftActive.Set(0)
}

// Active reports whether the drift alarm is currently raised.
func (d *Detector) Active() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.active
}

// LastPSI returns the most recent checked divergence.
func (d *Detector) LastPSI() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lastPSI
}

// Checks returns the number of performed (non-skipped) checks; Trips the
// number of off→on alarm transitions.
func (d *Detector) Checks() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.checks
}

func (d *Detector) Trips() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.trips
}

// Check compares one window aggregate against the reference and advances the
// hysteresis state machine. Also feeds the telemetry drift instruments.
func (d *Detector) Check(st *Stats) Verdict {
	d.mu.Lock()
	defer d.mu.Unlock()
	v := Verdict{Active: d.active}
	// MinSamples may be 0, so an empty window needs its own guard.
	if d.ref == nil || st.Predicts == 0 || st.Predicts < d.MinSamples {
		return v
	}
	var cur Profile
	cur.fill(st)
	v.MarginPSI = psi(d.ref.Margin[:], cur.Margin[:])
	v.ClassPSI = psi(d.ref.Priors[:], cur.Priors[:])
	v.PSI = v.MarginPSI
	if v.ClassPSI > v.PSI {
		v.PSI = v.ClassPSI
	}
	v.Checked = true
	d.checks++
	d.lastPSI = v.PSI
	telemetry.QualityDriftChecks.Inc()
	telemetry.QualityDriftPSIMicro.Set(int64(v.PSI * 1e6))

	switch {
	case v.PSI >= d.TripPSI:
		d.over++
		d.under = 0
	case v.PSI <= d.ClearPSI:
		d.under++
		d.over = 0
	default:
		d.over, d.under = 0, 0
	}
	if !d.active && d.over >= d.Need {
		d.active = true
		d.trips++
		v.Tripped = true
		telemetry.QualityDriftTrips.Inc()
	}
	if d.active && d.under >= d.Need {
		d.active = false
	}
	v.Active = d.active
	if d.active {
		telemetry.QualityDriftActive.Set(1)
	} else {
		telemetry.QualityDriftActive.Set(0)
	}
	return v
}
