package generic

import (
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/edge-hdc/generic/internal/encoding"
	"github.com/edge-hdc/generic/internal/modelio"
)

// ErrCorruptModel is returned (wrapped) by LoadPipeline when the stream's
// CRC32 integrity footer does not match its contents.
var ErrCorruptModel = errors.New("generic: model file corrupt (checksum mismatch)")

// Save serializes a trained pipeline (encoder configuration + model) to w
// in the library's versioned binary format — the software counterpart of
// the accelerator's config port. The encoder configuration includes the
// hypervector seed, so LoadPipeline reconstructs a pipeline whose
// predictions are bit-identical. The stream carries a CRC32 integrity
// footer that LoadPipeline verifies.
func (p *Pipeline) Save(w io.Writer) error {
	if err := p.trained("Save"); err != nil {
		return err
	}
	b := &modelio.Bundle{
		Kind: p.enc.Kind(), Cfg: p.enc.Config(), Model: p.model, Trainer: p.trainer,
	}
	// A binarized pipeline saves its counters plus the representation flag;
	// the packed class vectors are re-derived from the counter signs on load.
	if p.bmodel != nil {
		b.Binarized = true
		b.BinarizedFromBW = p.bmodel.SourceBW()
	}
	return modelio.Write(w, b)
}

// SaveFile is Save to a file path, through the crash-safe
// temp-fsync-rename protocol: the bytes land in a temporary file first and
// are renamed over path only after a successful fsync, so a crash mid-write
// (or a serialization error) leaves any previous model file at path intact
// instead of a truncated one.
func (p *Pipeline) SaveFile(path string) error {
	if err := p.trained("SaveFile"); err != nil {
		return err
	}
	return modelio.AtomicWriteFile(path, p.Save)
}

// LoadPipeline reconstructs a trained pipeline from a stream written by
// Save. Corrupt payloads (failing the CRC32 footer check) are rejected with
// an error wrapping ErrCorruptModel. Legacy footerless files (format
// version 1) still load; HasChecksum reports false for them — the "no
// checksum" note.
func LoadPipeline(r io.Reader) (*Pipeline, error) {
	b, err := modelio.Read(r)
	if err != nil {
		if errors.Is(err, modelio.ErrChecksum) {
			return nil, fmt.Errorf("%w: %v", ErrCorruptModel, err)
		}
		return nil, err
	}
	enc, err := encoding.New(b.Kind, b.Cfg)
	if err != nil {
		return nil, fmt.Errorf("generic: rebuilding encoder: %w", err)
	}
	p := NewPipeline(enc, b.Model.Classes())
	p.model = b.Model
	p.trainer = b.Trainer
	p.hasChecksum = b.HasChecksum
	if b.Binarized {
		// Re-derive the packed representation and restore binary as the
		// pipeline's default inference mode, as at save time.
		if err := p.Binarize(); err != nil {
			return nil, fmt.Errorf("generic: rebinarizing loaded model: %w", err)
		}
	}
	return p, nil
}

// HasChecksum reports whether the model file this pipeline was loaded from
// carried (and passed) a CRC32 integrity footer. False for pipelines built
// in memory or loaded from legacy version-1 files, which predate the
// footer.
func (p *Pipeline) HasChecksum() bool { return p.hasChecksum }

// LoadPipelineFile is LoadPipeline from a file path.
func LoadPipelineFile(path string) (*Pipeline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadPipeline(f)
}
