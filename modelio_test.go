package generic_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	generic "github.com/edge-hdc/generic"
)

func TestPipelineSaveLoadRoundTrip(t *testing.T) {
	p, X, Y := trainXor(t)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := generic.LoadPipeline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !q.HasChecksum() {
		t.Error("loaded pipeline does not report a verified checksum")
	}
	for i, x := range X {
		if got, want := must(q.Predict(x)), must(p.Predict(x)); got != want {
			t.Fatalf("sample %d: loaded pipeline predicts %d, original %d", i, got, want)
		}
		_ = Y
	}
}

func TestLoadPipelineCorrupt(t *testing.T) {
	p, _, _ := trainXor(t)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the middle of the payload: the CRC32 footer must
	// catch it and LoadPipeline must answer with the corruption sentinel.
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0x10
	if _, err := generic.LoadPipeline(bytes.NewReader(raw)); !errors.Is(err, generic.ErrCorruptModel) {
		t.Fatalf("corrupt payload: err = %v, want ErrCorruptModel", err)
	}
}

func TestPipelineSaveLoadFile(t *testing.T) {
	p, X, _ := trainXor(t)
	path := filepath.Join(t.TempDir(), "model.ghdc")
	if err := p.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	q, err := generic.LoadPipelineFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if must(q.Predict(X[0])) != must(p.Predict(X[0])) {
		t.Fatal("file round trip changed predictions")
	}
}

func TestLoadPipelineFileMissing(t *testing.T) {
	if _, err := generic.LoadPipelineFile("/nonexistent/model.ghdc"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSaveUntrainedErrors(t *testing.T) {
	enc, _ := generic.NewEncoder(generic.LevelID, generic.EncoderConfig{
		D: 256, Features: 4, Lo: 0, Hi: 1, Seed: 1,
	})
	p := generic.NewPipeline(enc, 2)
	var buf bytes.Buffer
	if err := p.Save(&buf); !errors.Is(err, generic.ErrNotTrained) {
		t.Fatalf("Save before Fit: err = %v, want ErrNotTrained", err)
	}
}

func TestLoadPipelineGarbage(t *testing.T) {
	if _, err := generic.LoadPipeline(bytes.NewReader([]byte("garbage data"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSaveLoadQuantizedPipeline(t *testing.T) {
	p, X, Y := trainXor(t)
	p.Model().Quantize(4)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := generic.LoadPipeline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, x := range X {
		if must(q.Predict(x)) == Y[i] {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(X)); frac < 0.95 {
		t.Fatalf("quantized round-trip accuracy %.3f", frac)
	}
	if q.Model().BW() != 4 {
		t.Fatalf("bw = %d after round trip", q.Model().BW())
	}
}
