package modelio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"strings"
	"testing"

	"github.com/edge-hdc/generic/internal/classifier"
	"github.com/edge-hdc/generic/internal/dataset"
	"github.com/edge-hdc/generic/internal/encoding"
)

func trainedBundle(t *testing.T) *Bundle {
	t.Helper()
	ds := dataset.MustLoad("EEG", 1)
	cfg := encoding.Config{
		D: 1024, Features: ds.Features, Bins: 64, Lo: ds.Lo, Hi: ds.Hi,
		N: 3, UseID: ds.UseID, Seed: 7,
	}
	enc := encoding.MustNew(encoding.Generic, cfg)
	trainH := encoding.EncodeAll(enc, ds.TrainX[:200])
	m, _, err := classifier.Train(trainH, ds.TrainY[:200], ds.Classes, classifier.Options{Epochs: 3, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &Bundle{Kind: encoding.Generic, Cfg: cfg, Model: m}
}

func TestRoundTrip(t *testing.T) {
	b := trainedBundle(t)
	var buf bytes.Buffer
	if err := Write(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != b.Kind {
		t.Errorf("kind %v != %v", got.Kind, b.Kind)
	}
	if got.Cfg != b.Cfg.Default() {
		t.Errorf("config mismatch: %+v vs %+v", got.Cfg, b.Cfg.Default())
	}
	if got.Model.D() != b.Model.D() || got.Model.Classes() != b.Model.Classes() ||
		got.Model.BW() != b.Model.BW() {
		t.Fatal("model header mismatch")
	}
	for c := 0; c < b.Model.Classes(); c++ {
		want := b.Model.Class(c)
		have := got.Model.Class(c)
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("class %d dim %d: %d != %d", c, i, have[i], want[i])
			}
		}
		if got.Model.Norm2(c) != b.Model.Norm2(c) {
			t.Fatalf("class %d norm mismatch", c)
		}
	}
}

func TestRoundTripPredictionsIdentical(t *testing.T) {
	b := trainedBundle(t)
	var buf bytes.Buffer
	if err := Write(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the encoder from the stored config: same seed → identical
	// hypervector material → identical predictions.
	enc := encoding.MustNew(got.Kind, got.Cfg)
	ds := dataset.MustLoad("EEG", 1)
	for i := 0; i < 50; i++ {
		h := encoding.EncodeAll(enc, ds.TestX[i:i+1])[0]
		p1, _, _ := b.Model.PredictDimsMargin(h, len(h), true)
		p2, _, _ := got.Model.PredictDimsMargin(h, len(h), true)
		if p1 != p2 {
			t.Fatalf("prediction diverged after round trip at sample %d", i)
		}
	}
}

func TestWriteNil(t *testing.T) {
	if err := Write(io.Discard, nil); err == nil {
		t.Error("nil bundle accepted")
	}
	if err := Write(io.Discard, &Bundle{}); err == nil {
		t.Error("nil model accepted")
	}
}

func TestReadBadMagic(t *testing.T) {
	if _, err := Read(strings.NewReader("NOPE....")); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestReadTruncated(t *testing.T) {
	b := trainedBundle(t)
	var buf bytes.Buffer
	if err := Write(&buf, b); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{3, 5, 20, len(full) / 2, len(full) - 1} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestReadBadVersion(t *testing.T) {
	b := trainedBundle(t)
	var buf bytes.Buffer
	if err := Write(&buf, b); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // version low byte
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Error("bad version accepted")
	}
}

func TestReadImplausibleHeader(t *testing.T) {
	b := trainedBundle(t)
	var buf bytes.Buffer
	if err := Write(&buf, b); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The model-D field sits after magic(4)+ver(2)+kind(2)+4×u32(16)+
	// useID(2)+seed(8)+lo(8)+hi(8) = offset 50.
	data[50], data[51], data[52], data[53] = 13, 0, 0, 0 // D=13: not ×128
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Error("implausible model dimensionality accepted")
	}
}

func TestQuantizedModelRoundTrip(t *testing.T) {
	b := trainedBundle(t)
	b.Model.Quantize(4)
	var buf bytes.Buffer
	if err := Write(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Model.BW() != 4 {
		t.Errorf("bw after round trip = %d, want 4", got.Model.BW())
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	b := trainedBundle(t)
	var buf bytes.Buffer
	if err := Write(&buf, b); err != nil {
		t.Fatal(err)
	}
	// Flip one bit in each region of the stream: header, payload middle,
	// payload tail. Every corruption must be caught by the footer.
	for _, pos := range []int{6, buf.Len() / 2, buf.Len() - 8} {
		raw := append([]byte(nil), buf.Bytes()...)
		raw[pos] ^= 0x04
		_, err := Read(bytes.NewReader(raw))
		if err == nil {
			t.Fatalf("corruption at byte %d not detected", pos)
		}
		// Header corruption may fail structural validation before the CRC
		// check; payload corruption must surface the checksum sentinel.
		if pos > 64 && !errors.Is(err, ErrChecksum) {
			t.Fatalf("corruption at byte %d: err = %v, want ErrChecksum", pos, err)
		}
	}
	// A corrupted footer itself is also a checksum mismatch.
	raw := append([]byte(nil), buf.Bytes()...)
	raw[len(raw)-1] ^= 0xff
	if _, err := Read(bytes.NewReader(raw)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("footer corruption: err = %v, want ErrChecksum", err)
	}
}

func TestChecksumFooterTruncated(t *testing.T) {
	b := trainedBundle(t)
	var buf bytes.Buffer
	if err := Write(&buf, b); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes()[:buf.Len()-2])); err == nil {
		t.Fatal("truncated footer accepted")
	}
}

func TestHasChecksumReported(t *testing.T) {
	b := trainedBundle(t)
	var buf bytes.Buffer
	if err := Write(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasChecksum {
		t.Error("current-version stream did not report HasChecksum")
	}
}

func TestTrainerRoundTrip(t *testing.T) {
	b := trainedBundle(t)
	b.Trainer = "lehdc"
	var buf bytes.Buffer
	if err := Write(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trainer != "lehdc" {
		t.Errorf("trainer after round trip = %q, want %q", got.Trainer, "lehdc")
	}
	// An empty trainer (provenance unknown) round-trips too.
	b.Trainer = ""
	buf.Reset()
	if err := Write(&buf, b); err != nil {
		t.Fatal(err)
	}
	if got, err = Read(&buf); err != nil || got.Trainer != "" {
		t.Errorf("empty trainer round trip: %q, %v", got.Trainer, err)
	}
}

func TestTrainerNameTooLong(t *testing.T) {
	b := trainedBundle(t)
	b.Trainer = strings.Repeat("x", maxTrainerLen+1)
	if err := Write(io.Discard, b); err == nil {
		t.Error("oversized trainer name accepted")
	}
}

// Version-2 files (checksummed, no trainer field) must still load, with an
// empty Trainer.
func TestVersion2Compatibility(t *testing.T) {
	b := trainedBundle(t)
	b.Trainer = "perceptron" // must be dropped, not mis-written, at v2
	var buf bytes.Buffer
	if err := writeVersioned(&buf, b, versionNoTrainer); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("reading v2 stream: %v", err)
	}
	if !got.HasChecksum {
		t.Error("v2 stream did not report HasChecksum")
	}
	if got.Trainer != "" {
		t.Errorf("v2 stream produced trainer %q, want empty", got.Trainer)
	}
	for c := 0; c < b.Model.Classes(); c++ {
		want, have := b.Model.Class(c), got.Model.Class(c)
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("v2 class %d dim %d: %d != %d", c, i, have[i], want[i])
			}
		}
	}
}

// Legacy version-1 files (no footer) must still load, with HasChecksum
// false so callers can surface the "no checksum" note.
func TestVersion1Compatibility(t *testing.T) {
	b := trainedBundle(t)
	var buf bytes.Buffer
	if err := writeVersioned(&buf, b, versionNoChecksum); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("reading v1 stream: %v", err)
	}
	if got.HasChecksum {
		t.Error("v1 stream claims a checksum")
	}
	for c := 0; c < b.Model.Classes(); c++ {
		want, have := b.Model.Class(c), got.Model.Class(c)
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("v1 class %d dim %d: %d != %d", c, i, have[i], want[i])
			}
		}
	}
	// v1 payload corruption goes undetected by design (no footer) as long
	// as the values stay structurally plausible — that is exactly why v2
	// exists. Corrupting a class word must therefore load "successfully".
	var raw bytes.Buffer
	if err := writeVersioned(&raw, b, versionNoChecksum); err != nil {
		t.Fatal(err)
	}
	bs := raw.Bytes()
	bs[len(bs)-3] ^= 0x01
	if _, err := Read(bytes.NewReader(bs)); err != nil {
		t.Fatalf("v1 stream with silent corruption rejected: %v", err)
	}
}

// TestAtomicWriteFilePreservesOriginal is the crash-safety contract of the
// save path: a write that fails mid-stream (here: a class element beyond
// the 16-bit wire range, detected halfway through serialization) must leave
// the previously saved file bit-for-bit intact and no temp litter behind.
func TestAtomicWriteFilePreservesOriginal(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/m.model"
	save := func(path string, b *Bundle) error {
		return AtomicWriteFile(path, func(w io.Writer) error { return Write(w, b) })
	}
	good := trainedBundle(t)
	if err := save(path, good); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Poison the model so Write errors after the header is already out.
	bad := trainedBundle(t)
	bad.Model.Class(0)[0] = 1 << 20
	if err := save(path, bad); err == nil {
		t.Fatal("out-of-range class element serialized without error")
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("failed save corrupted the existing file")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		for _, e := range entries {
			t.Logf("left behind: %s", e.Name())
		}
		t.Errorf("failed save left %d entries in the directory, want 1", len(entries))
	}

	// The intact original still loads and round-trips.
	got, err := Read(bytes.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	if got.Model.D() != good.Model.D() {
		t.Error("reloaded model header mismatch")
	}

	// A failed write must also not clobber when no original exists.
	fresh := dir + "/fresh.model"
	if err := save(fresh, bad); err == nil {
		t.Fatal("poisoned bundle accepted")
	}
	if _, err := os.Stat(fresh); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("failed first save left a file: %v", err)
	}
}

func TestBinarizedRoundTrip(t *testing.T) {
	b := trainedBundle(t)
	b.Binarized = true
	b.BinarizedFromBW = b.Model.BW()
	if b.BinarizedFromBW == 0 {
		b.BinarizedFromBW = 16
	}
	var buf bytes.Buffer
	if err := Write(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Binarized {
		t.Error("binarized flag lost in round trip")
	}
	if got.BinarizedFromBW != b.BinarizedFromBW {
		t.Errorf("source bit-width %d, want %d", got.BinarizedFromBW, b.BinarizedFromBW)
	}
	// The payload stays the integer counters: they round-trip bit-exactly so
	// the binary model can be re-derived (and the file re-exactified).
	for c := 0; c < b.Model.Classes(); c++ {
		want, have := b.Model.Class(c), got.Model.Class(c)
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("class %d dim %d: %d != %d", c, i, have[i], want[i])
			}
		}
	}

	// A non-binarized bundle reads back with the flag clear.
	plain := trainedBundle(t)
	buf.Reset()
	if err := Write(&buf, plain); err != nil {
		t.Fatal(err)
	}
	if got, err = Read(&buf); err != nil || got.Binarized || got.BinarizedFromBW != 0 {
		t.Errorf("plain bundle: binarized=%v srcBW=%d err=%v", got.Binarized, got.BinarizedFromBW, err)
	}
}

func TestBinarizedWriteValidatesSourceBW(t *testing.T) {
	b := trainedBundle(t)
	b.Binarized = true
	for _, bad := range []int{0, -1, 17} {
		b.BinarizedFromBW = bad
		if err := Write(io.Discard, b); err == nil {
			t.Errorf("source bit-width %d accepted", bad)
		}
	}
}

func TestBinarizedReadValidatesSourceBW(t *testing.T) {
	b := trainedBundle(t)
	b.Binarized = true
	b.BinarizedFromBW = 8
	var buf bytes.Buffer
	if err := Write(&buf, b); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	// The srcBW u16 sits just before the class payload (classes×D×2 bytes)
	// and the 4-byte CRC footer.
	off := len(raw) - 4 - b.Model.Classes()*b.Model.D()*2 - 2
	if raw[off] != 8 || raw[off+1] != 0 {
		t.Fatalf("srcBW not at computed offset %d (got % x)", off, raw[off:off+2])
	}
	raw[off] = 99 // out of [1,16]
	// Re-seal the CRC so the corruption reaches the semantic validator.
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[:len(raw)-4]))
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Error("implausible binarization source bit-width accepted")
	} else if errors.Is(err, ErrChecksum) {
		t.Errorf("want a validation error, got checksum mismatch: %v", err)
	}
}

// Version-3 files (trainer, no representation block) must still load, as
// not binarized.
func TestVersion3Compatibility(t *testing.T) {
	b := trainedBundle(t)
	b.Trainer = "perceptron"
	b.Binarized = true // must be dropped, not mis-written, at v3
	b.BinarizedFromBW = 8
	var buf bytes.Buffer
	if err := writeVersioned(&buf, b, versionNoBinary); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("reading v3 stream: %v", err)
	}
	if got.Binarized || got.BinarizedFromBW != 0 {
		t.Errorf("v3 stream produced binarized=%v srcBW=%d, want false/0", got.Binarized, got.BinarizedFromBW)
	}
	if got.Trainer != "perceptron" {
		t.Errorf("v3 trainer %q, want perceptron", got.Trainer)
	}
	for c := 0; c < b.Model.Classes(); c++ {
		want, have := b.Model.Class(c), got.Model.Class(c)
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("v3 class %d dim %d: %d != %d", c, i, have[i], want[i])
			}
		}
	}
}
