package quality

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// deterministic (class, margin) stream: goroutine g, step i.
func obsFor(g, i int) (class int, margin float64) {
	class = (g*7 + i) % 5
	margin = float64((g*131+i*17)%1000) / 1000
	return class, margin
}

// TestObserverRaceDeterministic hammers one observer from many goroutines
// while a rotator spins, then proves the cumulative aggregates are exactly
// what a serial oracle produces: the hot path never resets, so rotation can
// neither lose nor double-count an observation.
func TestObserverRaceDeterministic(t *testing.T) {
	const (
		goroutines = 8
		perG       = 5000
		rotations  = 200
	)

	obs := NewObserver()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				class, margin := obsFor(g, i)
				obs.ObservePredict(class, margin)
				if i%10 == 0 {
					obs.ObserveAdapt(class, i%3 == 0)
				}
				if i%25 == 0 {
					obs.ObserveShadow(i%50 == 0)
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := 0; r < rotations; r++ {
			obs.Rotate()
			obs.Window() // concurrent reads must be race-free too
		}
	}()
	wg.Wait()
	<-done
	obs.Rotate() // final snapshot after all writers joined

	oracle := NewObserver()
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			class, margin := obsFor(g, i)
			oracle.ObservePredict(class, margin)
			if i%10 == 0 {
				oracle.ObserveAdapt(class, i%3 == 0)
			}
			if i%25 == 0 {
				oracle.ObserveShadow(i%50 == 0)
			}
		}
	}

	got, want := obs.Total(), oracle.Total()
	got.At, got.SpanNS = 0, 0
	want.At, want.SpanNS = 0, 0
	if got != want {
		t.Fatalf("concurrent aggregates diverged from serial oracle:\n got %+v\nwant %+v", got, want)
	}

	// Window after the final rotation still satisfies the invariants.
	w := obs.Window()
	if w.Predicts != w.BucketTotal() {
		t.Fatalf("window predicts %d != bucket total %d", w.Predicts, w.BucketTotal())
	}
	var classes int64
	for i := range w.Classes {
		classes += w.Classes[i]
	}
	if w.Predicts != classes {
		t.Fatalf("window predicts %d != class total %d", w.Predicts, classes)
	}
}

// checkInvariants returns an error when st breaks a Stats invariant.
func checkInvariants(st *Stats) error {
	for i, n := range st.Buckets {
		if n < 0 {
			return fmt.Errorf("bucket %d holds %d predicts", i, n)
		}
	}
	var classes, classEvals, classHits int64
	for i := range st.Classes {
		if st.Classes[i] < 0 || st.AdaptClassHits[i] < 0 || st.AdaptClassHits[i] > st.AdaptClassEvals[i] {
			return fmt.Errorf("class %d: %d predicts, %d adapt hits of %d evals", i, st.Classes[i], st.AdaptClassHits[i], st.AdaptClassEvals[i])
		}
		classes += st.Classes[i]
		classEvals += st.AdaptClassEvals[i]
		classHits += st.AdaptClassHits[i]
	}
	switch {
	case st.Predicts != st.BucketTotal() || st.Predicts != classes:
		return fmt.Errorf("predicts %d, bucket total %d, class total %d", st.Predicts, st.BucketTotal(), classes)
	case st.AdaptEvals != classEvals || st.AdaptHits != classHits:
		return fmt.Errorf("adapt evals %d/hits %d, per-class sums %d/%d", st.AdaptEvals, st.AdaptHits, classEvals, classHits)
	case st.AdaptHits > st.AdaptEvals:
		return fmt.Errorf("adapt hits %d > evals %d", st.AdaptHits, st.AdaptEvals)
	case st.ShadowDisagree < 0 || st.ShadowDisagree > st.ShadowSamples:
		return fmt.Errorf("shadow disagree %d outside [0, %d]", st.ShadowDisagree, st.ShadowSamples)
	case st.LowMargin < 0 || st.MarginSumMicro < 0:
		return fmt.Errorf("low margin %d, margin sum %d", st.LowMargin, st.MarginSumMicro)
	}
	return nil
}

// TestWindowInvariantsUnderRotation reads windows while writers observe and
// a rotator spins — the monitor tick running beside GET /quality. Every
// window, including one whose base slot Rotate is rewriting, must satisfy
// the Stats invariants exactly.
func TestWindowInvariantsUnderRotation(t *testing.T) {
	const (
		rounds  = 50
		writers = 4
		perW    = 2000
	)
	for round := 0; round < rounds; round++ {
		obs := NewObserver()
		var stop atomic.Bool
		var wg, bg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perW; i++ {
					class, margin := obsFor(g, i)
					obs.ObservePredict(class, margin)
					if i%3 == 0 {
						obs.ObserveAdapt(class, i%2 == 0)
					}
					if i%5 == 0 {
						obs.ObserveShadow(i%4 == 0)
					}
				}
			}(g)
		}
		bg.Add(2)
		go func() {
			defer bg.Done()
			for !stop.Load() {
				obs.Rotate()
			}
		}()
		var readErr error
		go func() {
			defer bg.Done()
			for !stop.Load() && readErr == nil {
				w := obs.Window()
				readErr = checkInvariants(&w)
			}
		}()
		wg.Wait()
		stop.Store(true)
		bg.Wait()
		if readErr != nil {
			t.Fatalf("round %d: window read during rotation: %v", round, readErr)
		}
		w := obs.Window()
		if err := checkInvariants(&w); err != nil {
			t.Fatalf("round %d: window after writers joined: %v", round, err)
		}
	}
}

func TestWindowDifferencing(t *testing.T) {
	obs := NewObserver()
	for i := 0; i < 100; i++ {
		obs.ObservePredict(i%3, 0.5)
	}
	obs.Rotate()
	for i := 0; i < 40; i++ {
		obs.ObservePredict(0, 0.25)
	}
	w := obs.Window()
	if w.Predicts != 40 {
		t.Fatalf("window predicts = %d, want 40 (post-rotation only)", w.Predicts)
	}
	if w.Classes[0] != 40 || w.Classes[1] != 0 {
		t.Fatalf("window class mix = %v, want all 40 in class 0", w.Classes[:3])
	}
	tot := obs.Total()
	if tot.Predicts != 140 {
		t.Fatalf("total predicts = %d, want 140", tot.Predicts)
	}

	// After the ring wraps, the window spans the ringSlots-1 complete
	// intervals since the oldest live snapshot plus the in-progress one
	// (empty here: the last iteration rotates after its observe).
	for r := 0; r < ringSlots+2; r++ {
		obs.ObservePredict(1, 0.9)
		obs.Rotate()
	}
	w = obs.Window()
	if w.Predicts != ringSlots-1 {
		t.Fatalf("wrapped window predicts = %d, want %d", w.Predicts, int64(ringSlots-1))
	}
}

func TestMarginBucketsAndQuantiles(t *testing.T) {
	// Buckets must tile [0,1]: every margin lands in a bucket whose bounds
	// contain it.
	for i := 0; i <= 1000; i++ {
		m := float64(i) / 1000
		b := MarginBucket(m)
		if b < 0 || b >= MarginBuckets {
			t.Fatalf("MarginBucket(%v) = %d out of range", m, b)
		}
		if m > BucketUpper(b)+1e-12 {
			t.Fatalf("margin %v above its bucket %d upper bound %v", m, b, BucketUpper(b))
		}
		if b > 0 && m < BucketUpper(b-1)-1e-12 {
			t.Fatalf("margin %v below bucket %d lower bound %v", m, b, BucketUpper(b-1))
		}
	}

	obs := NewObserver()
	for i := 0; i < 1000; i++ {
		obs.ObservePredict(0, float64(i)/1000)
	}
	st := obs.Total()
	p10, p50, p90 := st.MarginQuantile(0.10), st.MarginQuantile(0.50), st.MarginQuantile(0.90)
	if !(p10 <= p50 && p50 <= p90) {
		t.Fatalf("quantiles not monotone: p10=%v p50=%v p90=%v", p10, p50, p90)
	}
	// Uniform margins: the median bucket's upper bound must be near 0.5
	// (sqrt bucketing is conservative by at most one bucket width).
	if p50 < 0.4 || p50 > 0.65 {
		t.Fatalf("uniform-margin p50 = %v, want ≈0.5", p50)
	}
	if mean := st.MeanMargin(); mean < 0.45 || mean > 0.55 {
		t.Fatalf("uniform-margin mean = %v, want ≈0.5", mean)
	}
}

func TestLowMarginRate(t *testing.T) {
	obs := NewObserver()
	obs.SetLowMarginThreshold(0.10)
	for i := 0; i < 80; i++ {
		obs.ObservePredict(0, 0.5)
	}
	for i := 0; i < 20; i++ {
		obs.ObservePredict(0, 0.01)
	}
	st := obs.Total()
	if got := st.LowMarginRate(); got < 0.19 || got > 0.21 {
		t.Fatalf("low-margin rate = %v, want 0.2", got)
	}
}

func TestClassSlotOverflow(t *testing.T) {
	obs := NewObserver()
	obs.ObservePredict(-1, 0.5)
	obs.ObservePredict(TrackedClasses+5, 0.5)
	obs.ObservePredict(TrackedClasses, 0.5)
	st := obs.Total()
	if st.Classes[TrackedClasses] != 3 {
		t.Fatalf("overflow slot = %d, want 3", st.Classes[TrackedClasses])
	}
}

func TestAdaptAndShadowRates(t *testing.T) {
	obs := NewObserver()
	for i := 0; i < 10; i++ {
		obs.ObserveAdapt(1, i < 7)
	}
	st := obs.Total()
	acc, ok := st.AdaptAccuracy()
	if !ok || acc != 0.7 {
		t.Fatalf("adapt accuracy = %v,%v, want 0.7,true", acc, ok)
	}
	cacc, ok := st.ClassAdaptAccuracy(1)
	if !ok || cacc != 0.7 {
		t.Fatalf("class-1 adapt accuracy = %v,%v, want 0.7,true", cacc, ok)
	}
	if _, ok := st.ClassAdaptAccuracy(2); ok {
		t.Fatal("class-2 adapt accuracy reported with no samples")
	}

	for i := 0; i < 8; i++ {
		obs.ObserveShadow(i != 0)
	}
	st = obs.Total()
	rate, ok := st.ShadowDisagreeRate()
	if !ok || rate != 0.125 {
		t.Fatalf("shadow disagree rate = %v,%v, want 0.125,true", rate, ok)
	}
}

// statsWithMargins builds a window aggregate from explicit margins/classes.
func statsWithMargins(margins []float64, classes []int) *Stats {
	obs := NewObserver()
	for i, m := range margins {
		obs.ObservePredict(classes[i%len(classes)], m)
	}
	st := obs.Total()
	return &st
}

func rampMargins(lo, hi float64, n int) []float64 {
	ms := make([]float64, n)
	for i := range ms {
		ms[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return ms
}

func TestDetectorTripsOnShift(t *testing.T) {
	ref := BuildProfile(rampMargins(0.3, 0.6, 256), []int{0, 1}, "exact")
	det := NewDetector(ref)
	det.Need = 3
	det.MinSamples = 64

	// Matching distribution: never trips.
	same := statsWithMargins(rampMargins(0.3, 0.6, 256), []int{0, 1})
	for i := 0; i < 10; i++ {
		if v := det.Check(same); v.Active {
			t.Fatalf("alarm raised on matching distribution (check %d, psi %v)", i, v.PSI)
		}
	}

	// Collapsed margins: trips after exactly Need consecutive checks.
	shifted := statsWithMargins(rampMargins(0.0, 0.05, 256), []int{0, 1})
	for i := 1; i <= det.Need; i++ {
		v := det.Check(shifted)
		if !v.Checked {
			t.Fatalf("check %d skipped", i)
		}
		if v.PSI < det.TripPSI {
			t.Fatalf("shifted distribution psi = %v, want >= %v", v.PSI, det.TripPSI)
		}
		wantActive := i == det.Need
		if v.Active != wantActive || v.Tripped != wantActive {
			t.Fatalf("check %d: active=%v tripped=%v, want both %v", i, v.Active, v.Tripped, wantActive)
		}
	}
	if det.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", det.Trips())
	}

	// Recovery: clears only after Need consecutive clean checks.
	for i := 1; i <= det.Need; i++ {
		v := det.Check(same)
		wantActive := i != det.Need
		if v.Active != wantActive {
			t.Fatalf("recovery check %d: active=%v, want %v", i, v.Active, wantActive)
		}
	}
	if det.Trips() != 1 {
		t.Fatalf("trips after recovery = %d, want 1 (clearing is not a trip)", det.Trips())
	}
}

func TestDetectorHysteresisPreventsFlapping(t *testing.T) {
	ref := BuildProfile(rampMargins(0.3, 0.6, 256), []int{0, 1}, "exact")
	det := NewDetector(ref)
	det.Need = 3

	same := statsWithMargins(rampMargins(0.3, 0.6, 256), []int{0, 1})
	shifted := statsWithMargins(rampMargins(0.0, 0.05, 256), []int{0, 1})

	// Alternating windows never sustain Need consecutive highs: no trip.
	for i := 0; i < 20; i++ {
		st := same
		if i%2 == 0 {
			st = shifted
		}
		if v := det.Check(st); v.Active {
			t.Fatalf("flapping input raised the alarm at check %d", i)
		}
	}
	if det.Trips() != 0 {
		t.Fatalf("trips = %d, want 0", det.Trips())
	}
}

func TestDetectorClassMixDrift(t *testing.T) {
	// Same margins, skewed prediction mix: the class-PSI leg must catch it.
	ref := BuildProfile(rampMargins(0.3, 0.6, 256), []int{0, 1}, "exact")
	det := NewDetector(ref)
	skew := statsWithMargins(rampMargins(0.3, 0.6, 256), []int{0}) // all class 0
	var v Verdict
	for i := 0; i < det.Need; i++ {
		v = det.Check(skew)
	}
	if !v.Active {
		t.Fatalf("class-mix skew did not trip (classPSI %v, marginPSI %v)", v.ClassPSI, v.MarginPSI)
	}
}

func TestDetectorSkipsSmallWindows(t *testing.T) {
	ref := BuildProfile(rampMargins(0.3, 0.6, 256), []int{0, 1}, "exact")
	det := NewDetector(ref)
	tiny := statsWithMargins(rampMargins(0.0, 0.05, 8), []int{0, 1})
	for i := 0; i < 10; i++ {
		if v := det.Check(tiny); v.Checked || v.Active {
			t.Fatalf("under-sampled window was checked (predicts %d < %d)", tiny.Predicts, det.MinSamples)
		}
	}
	if det.Checks() != 0 {
		t.Fatalf("checks = %d, want 0", det.Checks())
	}
}

func TestDetectorBootstrap(t *testing.T) {
	det := NewDetector(nil)
	win := statsWithMargins(rampMargins(0.3, 0.6, 256), []int{0, 1})
	if v := det.Check(win); v.Checked {
		t.Fatal("check ran with no reference profile")
	}
	det.SetRef(ProfileFromStats(win, "exact"))
	v := det.Check(win)
	if !v.Checked {
		t.Fatal("check skipped after bootstrap")
	}
	if v.PSI > 0.01 {
		t.Fatalf("self-comparison psi = %v, want ≈0", v.PSI)
	}
}
