package main

// The model-quality monitor: the daemon-side loop that turns the process
// observer (internal/quality) into operator-facing state. Every
// -quality-every it rotates the rolling window, bootstraps or checks the
// drift detector, and folds the alarm into the serve health machine
// (degraded-on-drift). GET /quality renders the same window as JSON.

import (
	"log/slog"
	"net/http"
	"time"

	generic "github.com/edge-hdc/generic"
	"github.com/edge-hdc/generic/internal/quality"
	"github.com/edge-hdc/generic/internal/serve"
)

// qualityMonitor owns window rotation and drift checking. tick is called
// from one goroutine (the loop, or tests directly); reads via the observer
// and detector are safe from any goroutine.
type qualityMonitor struct {
	obs  *quality.Observer
	det  *quality.Detector
	core *serve.Core
	stop chan struct{}
	done chan struct{}
}

// newQualityMonitor builds a monitor over the process-wide observer. ref is
// the profile captured at Fit/Binarize; nil means bootstrap the baseline
// from the first window with at least minSamples predicts.
func newQualityMonitor(core *serve.Core, ref *quality.Profile, cfg qualityConfig) *qualityMonitor {
	det := quality.NewDetector(ref)
	if cfg.tripPSI > 0 {
		det.TripPSI = cfg.tripPSI
	}
	if cfg.clearPSI > 0 {
		det.ClearPSI = cfg.clearPSI
	}
	if cfg.windows > 0 {
		det.Need = cfg.windows
	}
	if cfg.minSamples > 0 {
		det.MinSamples = cfg.minSamples
	}
	return &qualityMonitor{obs: quality.Default, det: det, core: core}
}

// qualityConfig carries the drift-detector knobs from flags.
type qualityConfig struct {
	every      time.Duration // window cadence; 0 disables the loop
	tripPSI    float64
	clearPSI   float64
	windows    int
	minSamples int64
}

// tick advances one monitor cycle: rotate the window, then either bootstrap
// the drift baseline (no reference yet) or run a drift check and push the
// alarm state into the serve health machine.
func (m *qualityMonitor) tick() quality.Verdict {
	m.obs.Rotate()
	st := m.obs.Window()
	if m.det.Ref() == nil {
		if st.Predicts >= m.det.MinSamples {
			mode := pipelineModeString(m.core.Current().Pipeline)
			m.det.SetRef(quality.ProfileFromStats(&st, mode))
			logger.Info("drift baseline bootstrapped from serving window",
				slog.Int64("samples", st.Predicts), slog.String("mode", mode))
		}
		return quality.Verdict{}
	}
	v := m.det.Check(&st)
	m.core.SetDrift(v.Active)
	if v.Tripped {
		logger.Warn("drift alarm tripped",
			slog.Float64("psi", v.PSI),
			slog.Float64("margin_psi", v.MarginPSI),
			slog.Float64("class_psi", v.ClassPSI),
			slog.Int64("window_predicts", st.Predicts))
	}
	return v
}

// start runs the monitor loop at the window cadence until halt.
func (m *qualityMonitor) start(every time.Duration) {
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	go func() {
		defer close(m.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.tick()
			case <-m.stop:
				return
			}
		}
	}()
}

// halt stops the monitor loop and waits for it to exit.
func (m *qualityMonitor) halt() {
	if m.stop == nil {
		return
	}
	close(m.stop)
	<-m.done
}

// pipelineModeString names the representation answering predicts, matching
// the profile modes built by the pipeline ("binary" only when binarized AND
// defaulting to the binary path).
func pipelineModeString(p *generic.Pipeline) string {
	if p.Binarized() && p.Mode() == generic.Binary {
		return "binary"
	}
	return "exact"
}

// qualityResponse is the GET /quality document: the rolling-window margin
// and mix aggregates, the streaming adapt accuracy, the drift detector
// state, and (binary mode only) the shadow disagreement series.
type qualityResponse struct {
	Mode            string         `json:"mode"`
	SnapshotVersion uint64         `json:"snapshot_version"`
	Window          qualityWindow  `json:"window"`
	Adapt           qualityAdapt   `json:"adapt"`
	Drift           qualityDrift   `json:"drift"`
	Shadow          *qualityShadow `json:"shadow,omitempty"`
}

type qualityWindow struct {
	Samples       int64     `json:"samples"`
	SpanMS        float64   `json:"span_ms"`
	MarginMean    float64   `json:"margin_mean"`
	MarginP10     float64   `json:"margin_p10"`
	MarginP50     float64   `json:"margin_p50"`
	MarginP90     float64   `json:"margin_p90"`
	LowMarginRate float64   `json:"low_margin_rate"`
	ClassMix      []float64 `json:"class_mix"`
}

type qualityAdapt struct {
	Evals    int64             `json:"evals"`
	Hits     int64             `json:"hits"`
	Accuracy float64           `json:"accuracy"` // 0 when no labeled traffic yet
	PerClass []qualityClassAcc `json:"per_class,omitempty"`
}

type qualityClassAcc struct {
	Class    int     `json:"class"`
	Evals    int64   `json:"evals"`
	Accuracy float64 `json:"accuracy"`
}

type qualityDrift struct {
	Reference bool    `json:"reference"` // a baseline profile is installed
	PSI       float64 `json:"psi"`
	Active    bool    `json:"active"`
	Checks    int64   `json:"checks"`
	Trips     int64   `json:"trips"`
}

type qualityShadow struct {
	Every         int     `json:"every"`
	Samples       int64   `json:"samples"`
	Disagreements int64   `json:"disagreements"`
	Rate          float64 `json:"rate"`
}

// handleQuality renders the monitor's rolling window. Reads race freely
// with observation and rotation: each window derives its totals from one
// read of the observer's cells, so samples, quantiles and class mix agree.
func (s *server) handleQuality(w http.ResponseWriter, r *http.Request) {
	serveRequests.Inc()
	m := s.monitor
	snap := s.core.Current()
	st := m.obs.Window()

	nClasses := snap.Pipeline.Model().Classes()
	resp := qualityResponse{
		Mode:            pipelineModeString(snap.Pipeline),
		SnapshotVersion: snap.Version,
		Window: qualityWindow{
			Samples:       st.Predicts,
			SpanMS:        float64(st.SpanNS) / 1e6,
			MarginMean:    st.MeanMargin(),
			MarginP10:     st.MarginQuantile(0.10),
			MarginP50:     st.MarginQuantile(0.50),
			MarginP90:     st.MarginQuantile(0.90),
			LowMarginRate: st.LowMarginRate(),
			ClassMix:      st.ClassMix(nClasses),
		},
		Drift: qualityDrift{
			Reference: m.det.Ref() != nil,
			PSI:       m.det.LastPSI(),
			Active:    m.det.Active(),
			Checks:    m.det.Checks(),
			Trips:     m.det.Trips(),
		},
	}
	resp.Adapt.Evals = st.AdaptEvals
	resp.Adapt.Hits = st.AdaptHits
	resp.Adapt.Accuracy, _ = st.AdaptAccuracy()
	for c := 0; c < nClasses && c < quality.TrackedClasses; c++ {
		if acc, ok := st.ClassAdaptAccuracy(c); ok {
			resp.Adapt.PerClass = append(resp.Adapt.PerClass, qualityClassAcc{
				Class: c, Evals: st.AdaptClassEvals[c], Accuracy: acc,
			})
		}
	}
	if resp.Mode == "binary" {
		sh := &qualityShadow{
			Every:         snap.Pipeline.ShadowEvery(),
			Samples:       st.ShadowSamples,
			Disagreements: st.ShadowDisagree,
		}
		sh.Rate, _ = st.ShadowDisagreeRate()
		resp.Shadow = sh
	}
	writeJSON(w, http.StatusOK, resp)
}
