package generic

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/edge-hdc/generic/internal/encoding"
)

// fitFingerprint fits name's GENERIC pipeline at D=1024 with trainer and
// returns SHA-256 prefixes of its Save bytes, its TrainResult, its exact
// QualityProfile and, after Binarize, its binary QualityProfile.
func fitFingerprint(t *testing.T, name, trainer string, workers int) [4]string {
	t.Helper()
	ds, err := LoadDataset(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncoderForDataset(Generic, ds, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(enc, ds.Classes, WithTrainer(trainer))
	res, err := p.Fit(ds.TrainX, ds.TrainY, TrainOptions{Epochs: 3, Seed: 1, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:8])
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var out [4]string
	out[0] = sum(buf.Bytes())
	out[1] = sum([]byte(fmt.Sprintf("%+v", res)))
	out[2] = sum([]byte(fmt.Sprintf("%+v", *p.QualityProfile())))
	if err := p.Binarize(); err != nil {
		t.Fatal(err)
	}
	out[3] = sum([]byte(fmt.Sprintf("%+v", *p.QualityProfile())))
	return out
}

// TestFitSetWidthsMatchInt32Path pins Fit on a benchmark whose encoder
// bound fits int8 (ISOLET, 126 windows: the int8 set) and one whose bound
// does not (FACE, 254 windows: int32 rows), with both trainers and at one
// and two workers, to fingerprints recorded from the int32-only Fit that
// predates the int8 set: the saved model, the TrainResult, the exact
// QualityProfile, and the binary one Binarize rebuilds from the retained
// calibration signs.
func TestFitSetWidthsMatchInt32Path(t *testing.T) {
	cases := []struct {
		name, trainer string
		want          [4]string
	}{
		{"ISOLET", "perceptron", [4]string{"1a55f901a06b579b", "90e86c033d79080c", "02cccc7f4493e179", "e6bac0edcdfbfc2e"}},
		{"ISOLET", "lehdc", [4]string{"125f00860df4fd82", "8ed30f475147c4ba", "c89296fb67021df3", "3ac58c7852d24232"}},
		{"FACE", "perceptron", [4]string{"bfa1faf7163caf88", "9a58793897613d33", "f6457900212f5fce", "ec0287d27d2e11a0"}},
		{"FACE", "lehdc", [4]string{"a46ba35ca2b4cede", "8a7ed02fba83467c", "fffcae8445149826", "5f94ef485813a45d"}},
	}
	for _, tc := range cases {
		ds, err := LoadDataset(tc.name, 1)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := EncoderForDataset(Generic, ds, 1024, 1)
		if err != nil {
			t.Fatal(err)
		}
		if narrow, want := encoding.EncodeSet(enc, ds.TrainX[:1], 1).Narrow(), tc.name == "ISOLET"; narrow != want {
			t.Fatalf("%s: int8 set = %v, want %v", tc.name, narrow, want)
		}
		for _, workers := range []int{1, 2} {
			if got := fitFingerprint(t, tc.name, tc.trainer, workers); got != tc.want {
				t.Errorf("%s/%s workers=%d: fingerprints %q, want %q (model, result, exact profile, binary profile)",
					tc.name, tc.trainer, workers, got, tc.want)
			}
		}
	}
}
