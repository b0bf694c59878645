package classifier

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/rng"
)

// modelHash fingerprints a model's class memory: SHA-256 over every class
// element in class-major order, little-endian int32.
func modelHash(m *Model) string {
	h := sha256.New()
	var buf [4]byte
	for c := 0; c < m.Classes(); c++ {
		for _, v := range m.Class(c) {
			binary.LittleEndian.PutUint32(buf[:], uint32(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPerceptronGoldenBytes pins PerceptronTrainer to the pre-refactor
// trainer's output: the hash below was captured from the monolithic
// trainer at the commit before the strategy split, on this exact synthetic
// problem and Options. If this test fails, the refactor changed the paper
// path's arithmetic — that is a bug, not a baseline to update.
func TestPerceptronGoldenBytes(t *testing.T) {
	const preRefactorSHA256 = "a6941cc86ae2ec141ad8d339a98a765863f0ce900fbe436d73b80d4bf896c049"
	r := rng.New(42)
	train, labels, _ := syntheticEncoded(r, 256, 8, 40, 0.47)
	m, res := mustTrain(t, train, labels, 8, Options{Epochs: 7, Seed: 99})
	if res.EpochsRun != 7 || res.FinalUpdates != 7 {
		t.Fatalf("golden run shape drifted: epochs=%d finalUpdates=%d, want 7/7", res.EpochsRun, res.FinalUpdates)
	}
	if got := modelHash(m); got != preRefactorSHA256 {
		t.Fatalf("PerceptronTrainer model bytes diverged from pre-refactor trainer:\n got %s\nwant %s", got, preRefactorSHA256)
	}
}

// TestTrainerDeterminismAcrossWorkers is the table-driven determinism suite:
// for every registered strategy, the same seed must produce a bit-identical
// model and training record for Workers ∈ {1, 2, 8}, and re-running at the
// same worker count must reproduce them exactly. Three perceptron cases
// cover the speculative epoch: an update-dense set (about 42% of samples
// update each epoch, so it rarely leaves the serial loop), a clean D=2048
// set whose whole epoch is scored in blocks, and a sparse one whose blocks
// end at a misprediction (22, 4 and 4 updates before it converges).
func TestTrainerDeterminismAcrossWorkers(t *testing.T) {
	type set struct {
		d, nC, perClass int
		noise           float64
	}
	base := set{256, 6, 25, 0.4}
	cases := []struct {
		trainer string
		opt     Options
		set     set
	}{
		{"perceptron", Options{Epochs: 5, Seed: 7}, base},
		{"lehdc", Options{Epochs: 5, Seed: 7}, base},
		{"lehdc", Options{Epochs: 4, Seed: 11, BW: 8, LR: 0.1, LRDecay: 0.9, BatchSize: 5}, base},
		{"perceptron", Options{Epochs: 3, Seed: 7}, set{256, 10, 300, 0.45}},
		{"perceptron", Options{Epochs: 3, Seed: 7}, set{2048, 4, 150, 0.3}},
		{"perceptron", Options{Epochs: 5, Seed: 7}, set{1024, 8, 100, 0.47}},
	}
	for _, tc := range cases {
		t.Run(tc.trainer, func(t *testing.T) {
			r := rng.New(21)
			train, labels, _ := syntheticEncoded(r, tc.set.d, tc.set.nC, tc.set.perClass, tc.set.noise)
			opt := tc.opt
			opt.Trainer = tc.trainer

			var want string
			var wantRes TrainResult
			for _, workers := range []int{1, 1, 2, 8} {
				opt.Workers = workers
				m, res, err := Train(train, labels, tc.set.nC, opt, nil)
				if err != nil {
					t.Fatal(err)
				}
				if res.Trainer != tc.trainer {
					t.Fatalf("TrainResult.Trainer = %q, want %q", res.Trainer, tc.trainer)
				}
				got := modelHash(m)
				if want == "" {
					want, wantRes = got, res
					continue
				}
				if got != want {
					t.Errorf("workers=%d: model bytes differ from serial run", workers)
				}
				if !reflect.DeepEqual(res, wantRes) {
					t.Errorf("workers=%d: TrainResult differs: %+v vs %+v", workers, res, wantRes)
				}
			}
		})
	}
}

// TestTrainValidation covers the validated error path that replaced the
// historical panic.
func TestTrainValidation(t *testing.T) {
	r := rng.New(1)
	train, labels, _ := syntheticEncoded(r, 256, 3, 4, 0.2)
	bad := []struct {
		name    string
		encoded []hdc.Vec
		labels  []int
		nC      int
		opt     Options
		wantSub string
	}{
		{"empty", nil, nil, 3, Options{}, "empty training set"},
		{"length mismatch", train, labels[:5], 3, Options{}, "vs 5 labels"},
		{"one class", train, labels, 1, Options{}, "at least 2 classes"},
		{"label out of range", train, append(append([]int{}, labels[:len(labels)-1]...), 9), 3, Options{}, "out of range"},
		{"ragged dims", append(append([]hdc.Vec{}, train...), hdc.NewVec(128)), append(append([]int{}, labels...), 0), 3, Options{}, "has 128 dims"},
		{"bad dimensionality", []hdc.Vec{hdc.NewVec(100), hdc.NewVec(100)}, []int{0, 1}, 2, Options{}, "positive multiple"},
		{"unknown trainer", train, labels, 3, Options{Trainer: "nope"}, "unknown trainer"},
		{"negative epochs", train, labels, 3, Options{Epochs: -3}, "Epochs=-3 must not be negative"},
		{"negative bw", train, labels, 3, Options{BW: -1}, "BW=-1 out of range"},
		{"bw past int32", train, labels, 3, Options{BW: 40}, "BW=40 out of range"},
		{"bw past int32, lehdc", train, labels, 3, Options{BW: 32, Trainer: "lehdc"}, "BW=32 out of range"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Train(tc.encoded, tc.labels, tc.nC, tc.opt, nil)
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("Train error = %v, want substring %q", err, tc.wantSub)
			}
		})
	}
}

// TestTrainerNames pins the strategy names the CLIs enumerate and the
// empty name's resolution to the default strategy.
func TestTrainerNames(t *testing.T) {
	names := TrainerNames()
	if len(names) != 2 || names[0] != "lehdc" || names[1] != "perceptron" {
		t.Fatalf("TrainerNames() = %v", names)
	}
	train, labels, _ := syntheticEncoded(rng.New(1), 256, 3, 4, 0.2)
	if _, res, err := Train(train, labels, 3, Options{Epochs: 1}, nil); err != nil || res.Trainer != "perceptron" {
		t.Fatalf("empty trainer name trained %q (err %v), want the perceptron default", res.Trainer, err)
	}
}

// TestLeHDCOutputIsDeployable checks the quantize-back contract: the LeHDC
// model is a plain bw-saturated int model whose norm bookkeeping matches a
// recomputation, so Predict/Quantize/faults/modelio work on it unmodified.
func TestLeHDCOutputIsDeployable(t *testing.T) {
	r := rng.New(33)
	train, labels, _ := syntheticEncoded(r, 512, 4, 20, 0.3)
	for _, bw := range []int{16, 8, 4} {
		m, res, err := Train(train, labels, 4, Options{Epochs: 6, Seed: 3, BW: bw, Trainer: "lehdc"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.EpochsRun < 1 || len(res.Epochs) != res.EpochsRun {
			t.Fatalf("bw=%d: per-epoch stats missing: %+v", bw, res)
		}
		lo, hi := int32(-1)<<uint(bw-1), int32(1)<<uint(bw-1)-1
		for c := 0; c < m.Classes(); c++ {
			for i, v := range m.Class(c) {
				if v < lo || v > hi {
					t.Fatalf("bw=%d class %d dim %d = %d outside saturated range [%d,%d]", bw, c, i, v, lo, hi)
				}
			}
			if m.Norm2(c) != m.Class(c).Norm2() {
				t.Fatalf("bw=%d class %d: cached norm stale after quantize-back", bw, c)
			}
		}
		// The learned model must still classify the separable set well.
		if acc := EvaluateDimsBatch(m, train, labels, m.D(), true, 1); acc < 0.95 {
			t.Errorf("bw=%d: train accuracy %.3f after LeHDC training", bw, acc)
		}
		// And survive further quantization like any other model.
		q := m.Clone()
		q.Quantize(1)
		if acc := EvaluateDimsBatch(q, train, labels, q.D(), true, 1); acc < 0.8 {
			t.Errorf("bw=%d: 1-bit accuracy %.3f after LeHDC training", bw, acc)
		}
	}
}

// TestLeHDCLossDecreases: cross-entropy on the shadow model must trend down
// over epochs on a learnable problem, and the recorded learning rate must
// decay.
func TestLeHDCLossDecreases(t *testing.T) {
	r := rng.New(5)
	train, labels, _ := syntheticEncoded(r, 256, 6, 30, 0.4)
	_, res, err := Train(train, labels, 6, Options{Epochs: 8, Seed: 2, Trainer: "lehdc"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) < 2 {
		t.Fatalf("only %d epochs recorded", len(res.Epochs))
	}
	first, last := res.Epochs[0], res.Epochs[len(res.Epochs)-1]
	if last.Loss >= first.Loss {
		t.Errorf("loss did not decrease: %.4f -> %.4f", first.Loss, last.Loss)
	}
	if last.LR >= first.LR {
		t.Errorf("learning rate did not decay: %.4f -> %.4f", first.LR, last.LR)
	}
	if res.FinalLoss != last.Loss || res.FinalUpdates != last.Updates {
		t.Errorf("Final* fields disagree with the last EpochStat: %+v", res)
	}
}

// TestTrainSetWidthsAgree trains both strategies on an int8 set and on the
// int32 rows it holds, at one and two workers: the models and training
// records must be identical. Rows take magnitudes up to 127 so the widening
// covers the whole byte range.
func TestTrainSetWidthsAgree(t *testing.T) {
	r := rng.New(5)
	train, labels, _ := syntheticEncoded(r, 512, 5, 40, 0.4)
	narrow := hdc.NewSet8(len(train), 512)
	for i, v := range train {
		row := narrow.Row8(i)
		for j := range v {
			v[j] *= int32(r.Intn(127) + 1)
			row[j] = int8(v[j])
		}
	}
	for _, trainer := range []string{"perceptron", "lehdc"} {
		for _, workers := range []int{1, 2} {
			opt := Options{Epochs: 4, Seed: 3, Trainer: trainer, Workers: workers}
			m32, res32, err := Train(train, labels, 5, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			m8, res8, err := TrainSet(narrow, labels, 5, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			if modelHash(m8) != modelHash(m32) || !reflect.DeepEqual(res8, res32) {
				t.Errorf("%s workers=%d: the int8 set trained another model or record", trainer, workers)
			}
		}
	}
}
