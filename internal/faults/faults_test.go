package faults

import (
	"errors"
	"math"
	"testing"

	"github.com/edge-hdc/generic/internal/classifier"
	"github.com/edge-hdc/generic/internal/encoding"
	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/rng"
)

// harness bundles one trained encoder/model pair plus the inputs it was
// trained on, so tests can compare predictions before and after faults.
type harness struct {
	enc   encoding.Encoder
	model *classifier.Model
	X     [][]float64
	Y     []int
}

// newHarness builds a deterministic two-class problem (pulse in the first
// vs second half of the window) and trains a small model on it. Identical
// calls produce bit-identical harnesses.
func newHarness(t *testing.T, kind encoding.Kind, useID bool) *harness {
	t.Helper()
	var X [][]float64
	var Y []int
	for i := 0; i < 80; i++ {
		x := make([]float64, 16)
		c := i % 2
		for j := 0; j < 4; j++ {
			x[c*8+j] = 0.9
		}
		x[(i*5)%16] += 0.05
		X = append(X, x)
		Y = append(Y, c)
	}
	enc, err := encoding.New(kind, encoding.Config{
		D: 512, Features: 16, Bins: 16, Lo: 0, Hi: 1, N: 3, UseID: useID, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	encoded := make([]hdc.Vec, len(X))
	for i, x := range X {
		encoded[i] = make(hdc.Vec, enc.D())
		enc.Encode(x, encoded[i])
	}
	m, _ := classifier.TrainEncoded(encoded, Y, 2, classifier.Options{Epochs: 3, Seed: 9})
	return &harness{enc: enc, model: m, X: X, Y: Y}
}

// predictions re-encodes every sample through the harness's (possibly
// faulted) encoder and classifies it.
func (h *harness) predictions() []int {
	out := make([]int, len(h.X))
	hv := make(hdc.Vec, h.enc.D())
	for i, x := range h.X {
		h.enc.Encode(x, hv)
		out[i], _ = h.model.Predict(hv)
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func modelsEqual(a, b *classifier.Model) bool {
	if a.D() != b.D() || a.Classes() != b.Classes() {
		return false
	}
	for c := 0; c < a.Classes(); c++ {
		av, bv := a.Class(c), b.Class(c)
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
		if a.Norm2(c) != b.Norm2(c) {
			return false
		}
	}
	return true
}

func TestParseRoundTrips(t *testing.T) {
	for _, s := range Sites() {
		got, err := ParseSite(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSite(%q) = %v, %v", s.String(), got, err)
		}
	}
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseSite("bogus"); err == nil {
		t.Error("ParseSite accepted bogus name")
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind accepted bogus name")
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Site: Site(99), Kind: Uniform, Rate: 0.1},
		{Site: SiteClass, Kind: Kind(99), Rate: 0.1},
		{Site: SiteClass, Kind: Uniform, Rate: -0.1},
		{Site: SiteClass, Kind: Uniform, Rate: 1.5},
		{Site: SiteClass, Kind: BankFail, Lane: Lanes},
		{Site: SiteClass, Kind: BankFail, Lane: -1},
		{Site: SiteClass, Kind: Burst, Rate: 0.1, Burst: -4},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", s)
		}
	}
	good := Spec{Site: SiteLevel, Kind: Burst, Rate: 0.5, Burst: 16, Seed: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected %+v: %v", good, err)
	}
}

// The acceptance criterion: the same seed and spec corrupt the same state
// bit-identically, at every persistent fault site and for every fault model.
func TestInjectionDeterministicEverySite(t *testing.T) {
	specs := []Spec{
		{Site: SiteClass, Kind: Uniform, Rate: 0.01, Seed: 101},
		{Site: SiteClass, Kind: StuckAt0, Rate: 0.02, Seed: 102},
		{Site: SiteClass, Kind: StuckAt1, Rate: 0.02, Seed: 103},
		{Site: SiteClass, Kind: Burst, Rate: 0.3, Burst: 12, Seed: 104},
		{Site: SiteClass, Kind: BankFail, Lane: 5, Seed: 105},
		{Site: SiteLevel, Kind: Uniform, Rate: 0.01, Seed: 106},
		{Site: SiteLevel, Kind: Burst, Rate: 0.5, Seed: 107},
		{Site: SiteID, Kind: Uniform, Rate: 0.05, Seed: 108},
		{Site: SiteNorm, Kind: Uniform, Rate: 0.05, Seed: 109},
	}
	for _, spec := range specs {
		t.Run(spec.String(), func(t *testing.T) {
			a := newHarness(t, encoding.Generic, true)
			b := newHarness(t, encoding.Generic, true)
			ca := NewController(a.model, a.enc)
			cb := NewController(b.model, b.enc)
			na, err := ca.Inject(spec)
			if err != nil {
				t.Fatal(err)
			}
			nb, err := cb.Inject(spec)
			if err != nil {
				t.Fatal(err)
			}
			if na != nb {
				t.Fatalf("injected bit counts differ: %d vs %d", na, nb)
			}
			if !modelsEqual(a.model, b.model) {
				t.Fatal("models diverged under identical specs")
			}
			if !equalInts(a.predictions(), b.predictions()) {
				t.Fatal("predictions diverged under identical specs")
			}
			// A different seed must realize a different fault pattern.
			// Predictions can coincide (HDC is robust — that is the point),
			// so compare the corrupted state itself: model bits for
			// class/norm sites, the encoded hypervector for level/id sites.
			c := newHarness(t, encoding.Generic, true)
			cc := NewController(c.model, c.enc)
			other := spec
			other.Seed ^= 0xdeadbeef
			if _, err := cc.Inject(other); err != nil {
				t.Fatal(err)
			}
			if spec.Kind == StuckAt0 || spec.Kind == StuckAt1 {
				return // sparse stuck-at defect maps can coincide
			}
			same := modelsEqual(a.model, c.model)
			if same && (spec.Site == SiteLevel || spec.Site == SiteID) {
				ha := make(hdc.Vec, a.enc.D())
				hc := make(hdc.Vec, c.enc.D())
				a.enc.Encode(a.X[0], ha)
				c.enc.Encode(c.X[0], hc)
				same = true
				for i := range ha {
					if ha[i] != hc[i] {
						same = false
						break
					}
				}
			}
			if same {
				t.Error("different seeds produced identical corruption")
			}
		})
	}
}

// Level and id memories are pseudorandom-from-seed: after arbitrary
// corruption, Scrub's regeneration must restore bit-identical predictions.
func TestScrubRestoresLevelAndID(t *testing.T) {
	for _, site := range []Site{SiteLevel, SiteID} {
		t.Run(site.String(), func(t *testing.T) {
			h := newHarness(t, encoding.Generic, true)
			want := h.predictions()
			ctl := NewController(h.model, h.enc)
			n, err := ctl.Inject(Spec{Site: site, Kind: Uniform, Rate: 0.2, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Fatal("injection changed no bits")
			}
			rep := ctl.Scrub()
			if !rep.EncoderRegenerated {
				t.Error("scrub did not regenerate the encoder")
			}
			if got := h.predictions(); !equalInts(got, want) {
				t.Error("predictions differ after scrub; regeneration is not bit-exact")
			}
			// Encoded vectors must match a pristine encoder exactly.
			fresh, err := encoding.New(h.enc.Kind(), h.enc.Config())
			if err != nil {
				t.Fatal(err)
			}
			a := make(hdc.Vec, h.enc.D())
			b := make(hdc.Vec, h.enc.D())
			h.enc.Encode(h.X[0], a)
			fresh.Encode(h.X[0], b)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("regenerated encoder differs from fresh at dim %d", i)
				}
			}
		})
	}
}

// A dead class-memory bank is detected by the CRC guard and masked out of
// the dot product, lowering EffectiveDims by one lane's worth.
func TestScrubMasksDeadBank(t *testing.T) {
	h := newHarness(t, encoding.Generic, true)
	ctl := NewController(h.model, h.enc)
	const lane = 3
	if _, err := ctl.Inject(Spec{Site: SiteClass, Kind: BankFail, Lane: lane, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	rep := ctl.Scrub()
	if rep.LanesMasked != 1 {
		t.Fatalf("LanesMasked = %d, want 1 (report: %v)", rep.LanesMasked, rep)
	}
	hl := ctl.Health()
	if len(hl.MaskedLanes) != 1 || hl.MaskedLanes[0] != lane {
		t.Fatalf("MaskedLanes = %v, want [%d]", hl.MaskedLanes, lane)
	}
	d := h.model.D()
	if want := d / Lanes * (Lanes - 1); hl.EffectiveDims != want {
		t.Errorf("EffectiveDims = %d, want %d", hl.EffectiveDims, want)
	}
	for c := 0; c < h.model.Classes(); c++ {
		cv := h.model.Class(c)
		for i := lane; i < d; i += Lanes {
			if cv[i] != 0 {
				t.Fatalf("class %d dim %d not masked", c, i)
			}
		}
	}
	if n := ctl.MaskedLaneCount(); n != 1 {
		t.Errorf("MaskedLaneCount = %d, want 1", n)
	}
	// A second scrub must not re-check or re-mask the dead lane.
	rep2 := ctl.Scrub()
	if rep2.LanesMasked != 0 || rep2.BadRows != 0 {
		t.Errorf("second scrub found new damage: %v", rep2)
	}
}

// An isolated corrupt (class, lane) column — not a whole dead bank — is
// unrecoverable under a detection-only code and must be quarantined.
func TestScrubQuarantinesIsolatedColumn(t *testing.T) {
	h := newHarness(t, encoding.Generic, true)
	ctl := NewController(h.model, h.enc)
	// Arm the guard without changing anything (rate 0), then corrupt a
	// single column directly through the memory adapter.
	if _, err := ctl.Inject(Spec{Site: SiteClass, Kind: Uniform, Rate: 0, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	mem := ClassMem(h.model)
	const lane = 6
	mem.SetBit(0, lane, 0, 1-mem.Bit(0, lane, 0))
	rep := ctl.Scrub()
	if rep.BadRows != 1 || rep.QuarantinedRows != 1 || rep.LanesMasked != 0 {
		t.Fatalf("report = %+v, want 1 bad, 1 quarantined, 0 masked", rep)
	}
	cv := h.model.Class(0)
	for i := lane; i < h.model.D(); i += Lanes {
		if cv[i] != 0 {
			t.Fatalf("quarantined column dim %d not zeroed", i)
		}
	}
	// Other classes' columns in the same lane survive untouched.
	if hl := ctl.Health(); len(hl.MaskedLanes) != 0 {
		t.Errorf("isolated column masked a lane: %v", hl.MaskedLanes)
	}
}

// Norm corruption leaves a stored norm that disagrees with the class
// vector; Scrub's recompute pass repairs it.
func TestScrubRepairsNorms(t *testing.T) {
	h := newHarness(t, encoding.Generic, true)
	want := make([]int64, h.model.Classes())
	for c := range want {
		want[c] = h.model.Norm2(c)
	}
	ctl := NewController(h.model, h.enc)
	if _, err := ctl.Inject(Spec{Site: SiteNorm, Kind: Uniform, Rate: 0.2, Seed: 77}); err != nil {
		t.Fatal(err)
	}
	changed := false
	for c := range want {
		if h.model.Norm2(c) != want[c] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("norm injection changed nothing")
	}
	ctl.Scrub()
	for c := range want {
		if got := h.model.Norm2(c); got != want[c] {
			t.Errorf("class %d norm2 = %d after scrub, want %d", c, got, want[c])
		}
	}
}

func TestTransientSitesRejected(t *testing.T) {
	h := newHarness(t, encoding.Generic, true)
	ctl := NewController(h.model, h.enc)
	for _, site := range []Site{SiteInput, SiteDatapath} {
		if _, err := ctl.Inject(Spec{Site: site, Kind: Uniform, Rate: 0.1}); !errors.Is(err, ErrTransientSite) {
			t.Errorf("%v: err = %v, want ErrTransientSite", site, err)
		}
	}
}

func TestIDSiteWithoutIDMemory(t *testing.T) {
	h := newHarness(t, encoding.Permute, false)
	ctl := NewController(h.model, h.enc)
	if _, err := ctl.Inject(Spec{Site: SiteID, Kind: Uniform, Rate: 0.1}); !errors.Is(err, ErrNoIDMemory) {
		t.Errorf("err = %v, want ErrNoIDMemory", err)
	}
	// The level memory is still injectable.
	if _, err := ctl.Inject(Spec{Site: SiteLevel, Kind: Uniform, Rate: 0.05, Seed: 2}); err != nil {
		t.Errorf("level injection on permute encoder: %v", err)
	}
}

func TestHealthTracksHistory(t *testing.T) {
	h := newHarness(t, encoding.Generic, true)
	ctl := NewController(h.model, h.enc)
	if got := ctl.Health(); got.GuardActive || len(got.Faults) != 0 {
		t.Fatalf("fresh controller health = %+v", got)
	}
	spec := Spec{Site: SiteClass, Kind: Uniform, Rate: 0.01, Seed: 5}
	n, err := ctl.Inject(spec)
	if err != nil {
		t.Fatal(err)
	}
	hl := ctl.Health()
	if !hl.GuardActive {
		t.Error("guard not active after class injection")
	}
	if hl.InjectedBits != n {
		t.Errorf("InjectedBits = %d, want %d", hl.InjectedBits, n)
	}
	if len(hl.Faults) != 1 || hl.Faults[0] != spec.String() {
		t.Errorf("Faults = %v, want [%q]", hl.Faults, spec.String())
	}
	if hl.String() == "" {
		t.Error("Health.String empty")
	}
}

func TestCorruptFeaturesDeterministic(t *testing.T) {
	x := []float64{0, 0.25, 0.5, 0.75, 1, 1.5, -0.5, 0.333}
	spec := Spec{Site: SiteInput, Kind: Uniform, Rate: 0.1, Seed: 11}
	inj, err := spec.Injector()
	if err != nil {
		t.Fatal(err)
	}
	a := make([]float64, len(x))
	b := make([]float64, len(x))
	na := CorruptFeatures(a, x, 0, 1, inj, rng.New(spec.Seed))
	nb := CorruptFeatures(b, x, 0, 1, inj, rng.New(spec.Seed))
	if na != nb {
		t.Fatalf("changed-bit counts differ: %d vs %d", na, nb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("feature %d differs: %g vs %g", i, a[i], b[i])
		}
	}
	// Rate 0 still round-trips through 8-bit quantization: values clamp to
	// [lo, hi] and snap to the 256-code grid. Features too large for an int
	// clamp to hi too (the clamp precedes the integer conversion).
	zero, _ := Spec{Site: SiteInput, Kind: Uniform, Rate: 0, Seed: 1}.Injector()
	x = append(x, 1e18, math.Inf(1))
	a = make([]float64, len(x))
	CorruptFeatures(a, x, 0, 1, zero, rng.New(1))
	if far := a[len(a)-2:]; far[0] != 1 || far[1] != 1 {
		t.Fatalf("1e18 and +Inf round-tripped to %v, want hi = 1", far)
	}
	for i, v := range a {
		if v < 0 || v > 1 {
			t.Fatalf("feature %d = %g outside [0,1] after quantization", i, v)
		}
		code := v * 255
		if diff := code - float64(int(code+0.5)); diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("feature %d = %g not on the 8-bit grid", i, v)
		}
	}
}

func TestStuckAtInjectors(t *testing.T) {
	h := newHarness(t, encoding.Generic, true)
	ctl := NewController(h.model, h.enc)
	// Stuck-at-0 with rate 1 zeroes the entire class memory.
	if _, err := ctl.Inject(Spec{Site: SiteClass, Kind: StuckAt0, Rate: 1, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < h.model.Classes(); c++ {
		for i, v := range h.model.Class(c) {
			if v != 0 {
				t.Fatalf("class %d dim %d = %d after stuck-at-0 rate 1", c, i, v)
			}
		}
		if h.model.Norm2(c) != 0 {
			t.Fatalf("class %d norm2 = %d after zeroing", c, h.model.Norm2(c))
		}
	}
}

func TestBinaryClassMemGeometry(t *testing.T) {
	h := newHarness(t, encoding.Generic, true)
	bm := classifier.Binarize(h.model)
	mem := BinaryClassMem(bm)
	if mem.Rows() != bm.Classes() || mem.Cells() != bm.D() || mem.CellBits() != 1 {
		t.Fatalf("geometry %dx%dx%d, want %dx%dx1", mem.Rows(), mem.Cells(), mem.CellBits(), bm.Classes(), bm.D())
	}
	// Bit/SetBit address the packed class vectors directly.
	for _, probe := range []struct{ row, cell int }{{0, 0}, {1, 63}, {0, 64}, {1, bm.D() - 1}} {
		want := bm.Class(probe.row).Bit(probe.cell)
		if got := mem.Bit(probe.row, probe.cell, 0); got != want {
			t.Fatalf("Bit(%d,%d) = %d, class bit = %d", probe.row, probe.cell, got, want)
		}
		mem.SetBit(probe.row, probe.cell, 0, 1-want)
		if bm.Class(probe.row).Bit(probe.cell) != 1-want {
			t.Fatalf("SetBit(%d,%d) not visible in the packed class", probe.row, probe.cell)
		}
		mem.SetBit(probe.row, probe.cell, 0, want)
	}
}

func TestBinaryClassMemInjection(t *testing.T) {
	h := newHarness(t, encoding.Generic, true)
	bm := classifier.Binarize(h.model)
	orig := bm.Clone()
	spec := Spec{Site: SiteClass, Kind: Uniform, Rate: 0.05, Seed: 77}
	inj, err := spec.Injector()
	if err != nil {
		t.Fatal(err)
	}
	n := inj.Apply(BinaryClassMem(bm), rng.New(spec.Seed))
	total := bm.Classes() * bm.D()
	if n == 0 || n > total/5 {
		t.Fatalf("injected %d of %d bits at rate 0.05", n, total)
	}
	// The flip count must equal the Hamming distance to the pristine model —
	// every injected bit landed in the packed storage, none elsewhere.
	diff := 0
	for c := 0; c < bm.Classes(); c++ {
		diff += bm.Class(c).Hamming(orig.Class(c))
	}
	if diff != n {
		t.Fatalf("injector reported %d flips, packed storage differs in %d bits", n, diff)
	}
	// Same spec, same seed: bit-identical corruption (determinism contract).
	bm2 := classifier.Binarize(h.model)
	inj2, _ := spec.Injector()
	if n2 := inj2.Apply(BinaryClassMem(bm2), rng.New(spec.Seed)); n2 != n {
		t.Fatalf("replay injected %d bits, first run %d", n2, n)
	}
	for c := 0; c < bm.Classes(); c++ {
		if !bm.Class(c).Equal(bm2.Class(c)) {
			t.Fatalf("replayed corruption differs in class %d", c)
		}
	}
}
