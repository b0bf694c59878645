package generic_test

import (
	"sync"
	"testing"

	generic "github.com/edge-hdc/generic"
)

// fitWorkers trains the same separable problem as trainXor with an
// explicit worker count.
func fitWorkers(t *testing.T, workers int) (*generic.Pipeline, [][]float64, []int) {
	t.Helper()
	var X [][]float64
	var Y []int
	for i := 0; i < 200; i++ {
		x := make([]float64, 32)
		c := i % 2
		base := 0
		if c == 1 {
			base = 16
		}
		for j := 0; j < 8; j++ {
			x[base+j] = 0.9
		}
		x[(i*7)%32] += 0.05
		X = append(X, x)
		Y = append(Y, c)
	}
	enc, err := generic.NewEncoder(generic.Generic, generic.EncoderConfig{
		D: 512, Features: 32, Lo: 0, Hi: 1, UseID: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := generic.NewPipeline(enc, 2)
	if _, err := p.Fit(X, Y, generic.TrainOptions{Epochs: 5, Seed: 1, Workers: workers}); err != nil {
		t.Fatal(err)
	}
	return p, X, Y
}

// The public determinism guarantee: Fit with any worker count yields a
// model bit-identical to the serial one.
func TestFitParallelBitIdentical(t *testing.T) {
	serial, X, Y := fitWorkers(t, 1)
	for _, workers := range []int{2, 4} {
		par, _, _ := fitWorkers(t, workers)
		sm, pm := serial.Model(), par.Model()
		for c := 0; c < sm.Classes(); c++ {
			sv, pv := sm.Class(c), pm.Class(c)
			for i := range sv {
				if sv[i] != pv[i] {
					t.Fatalf("workers=%d: class %d element %d differs", workers, c, i)
				}
			}
		}
		if sa, pa := must(serial.Accuracy(X, Y)), must(par.Accuracy(X, Y, generic.WithWorkers(workers))); sa != pa {
			t.Fatalf("workers=%d: accuracy %v vs serial %v", workers, pa, sa)
		}
		want := must(serial.PredictAll(X))
		got := must(par.PredictAll(X, generic.WithWorkers(workers)))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: PredictAll sample %d differs", workers, i)
			}
		}
	}
}

// Concurrent Predict, with and without WithDims, on one Pipeline must be
// safe (the encoder/scratch pool) and agree with the serial answers. Run
// under -race to verify the safety half. The agreement must survive changes of
// the encoder material: level/id fault injection and Scrub install fresh
// material, and the state pool must be swapped with it. The
// pool is warmed on the old material first, so a missing swap would hand
// out stale encoders; the reference encodes through the primary encoder,
// which never comes from the pool, and the margin makes any encoding change
// visible even where the label survives it.
func TestPredictConcurrentSafe(t *testing.T) {
	inject := func(site generic.FaultSite) func(*generic.Pipeline, func()) error {
		return func(p *generic.Pipeline, _ func()) error {
			_, err := p.InjectFaults(generic.FaultSpec{Site: site, Kind: generic.FaultUniform, Rate: 0.2, Seed: 9})
			return err
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(p *generic.Pipeline, warm func()) error
	}{
		{"trained", func(*generic.Pipeline, func()) error { return nil }},
		{"level faults", inject(generic.FaultSiteLevel)},
		{"id faults", inject(generic.FaultSiteID)},
		{"scrub", func(p *generic.Pipeline, warm func()) error {
			if err := inject(generic.FaultSiteLevel)(p, warm); err != nil {
				return err
			}
			warm() // the pool now holds faulted material for Scrub to retire
			_, err := p.Scrub()
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, X, _ := fitWorkers(t, 1)
			warm := func() { forEachConcurrently(len(X), func(i int) { must(p.Predict(X[i])) }) }
			warm()
			if err := tc.mutate(p, warm); err != nil {
				t.Fatal(err)
			}
			type answer struct {
				label  int
				margin float64
			}
			want := make([]answer, len(X))
			wantRed := make([]int, len(X))
			h := make(generic.Hypervector, p.Encoder().D())
			for i, x := range X {
				p.Encoder().Encode(x, h)
				want[i].label, want[i].margin = p.Model().MarginDims(h, p.Model().D())
				wantRed[i], _ = p.Model().PredictDims(h, 256, true)
				if c, m := must2(p.PredictMargin(x)); (answer{c, m}) != want[i] {
					t.Fatalf("serial PredictMargin(%d) = (%d, %v), primary encoder gives %+v", i, c, m, want[i])
				}
			}
			forEachConcurrently(len(X), func(i int) {
				if c, m := must2(p.PredictMargin(X[i])); (answer{c, m}) != want[i] {
					t.Errorf("concurrent PredictMargin(%d) = (%d, %v), want %+v", i, c, m, want[i])
				}
				if got := must(p.Predict(X[i], generic.WithDims(256))); got != wantRed[i] {
					t.Errorf("concurrent Predict(%d, WithDims(256)) = %d, want %d", i, got, wantRed[i])
				}
			})
		})
	}
}

// forEachConcurrently runs fn(i) for every i in [0, n) across 8 goroutines.
func forEachConcurrently(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 8 {
				fn(i)
			}
		}(g)
	}
	wg.Wait()
}

func TestEncodeWorkersMatchesSerial(t *testing.T) {
	_, X, _ := fitWorkers(t, 1)
	enc, err := generic.NewEncoder(generic.Generic, generic.EncoderConfig{
		D: 512, Features: 32, Lo: 0, Hi: 1, UseID: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := generic.Encode(enc, X)
	got := generic.EncodeWorkers(enc, X, 4)
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("encoded sample %d element %d differs", i, j)
			}
		}
	}
}

func TestClusterWorkersBitIdentical(t *testing.T) {
	cs, err := generic.LoadClusterSet("Iris", 1)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := generic.NewEncoder(generic.Generic, generic.EncoderConfig{
		D: 1024, Features: cs.Features, Bins: 32, Lo: cs.Lo, Hi: cs.Hi,
		N: cs.Features, UseID: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	serial := generic.Cluster(enc, cs.X, cs.K, 5)
	par := generic.ClusterWorkers(enc, cs.X, cs.K, 5, 4)
	for i := range serial.Assignments {
		if par.Assignments[i] != serial.Assignments[i] {
			t.Fatalf("assignment %d differs: %d vs %d", i, par.Assignments[i], serial.Assignments[i])
		}
	}
}

func must2[A, B any](a A, b B, err error) (A, B) {
	if err != nil {
		panic(err)
	}
	return a, b
}

// A small exact batch (fewer rows than twice the workers) beside concurrent
// Predict traffic must encode through pooled scratch like every other path,
// never through the primary encoder that the pool also hands out. Either
// side of such a collision corrupts an encoding; the margin makes that
// visible on the Predict side even where the label survives it.
func TestPredictAllBesidePredict(t *testing.T) {
	p, X, _ := fitWorkers(t, 1)
	// The reference runs on a clone, leaving p's state pool untouched until
	// the two callers below meet on it.
	ref := p.Clone()
	want := must(ref.PredictAll(X))
	margins := make([]float64, len(X))
	for i, x := range X {
		_, margins[i] = must2(ref.PredictMargin(x))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for ; ; i = (i + 1) % len(X) {
				select {
				case <-stop:
					return
				default:
					if c, m := must2(p.PredictMargin(X[i])); c != want[i] || m != margins[i] {
						t.Errorf("PredictMargin(%d) = (%d, %v), want (%d, %v)", i, c, m, want[i], margins[i])
					}
				}
			}
		}(g * 50)
	}
	for round := 0; round < 20; round++ {
		for i := range X {
			got := must(p.PredictAll(X[i:i+1], generic.WithWorkers(2)))
			if got[0] != want[i] {
				t.Errorf("PredictAll(%d) = %d, want %d", i, got[0], want[i])
			}
		}
	}
	close(stop)
	wg.Wait()
}
