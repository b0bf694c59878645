package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"

	"github.com/edge-hdc/generic/internal/rng"
)

// maxCSVLabel bounds class labels in CSV input; labels are dense class
// indices, so anything near this bound indicates a malformed file.
const maxCSVLabel = 1 << 20

// CSVOptions controls parsing of labelled CSV data (the format
// cmd/generic-datagen emits: label in the first column, features after).
type CSVOptions struct {
	// LabelColumn is the index of the integer class label (default 0).
	LabelColumn int
	// HasHeader skips the first row.
	HasHeader bool
	// TestFraction is split off (after shuffling with Seed) as the test
	// set; 0 defaults to 0.3.
	TestFraction float64
	// Seed drives the shuffle.
	Seed uint64
	// Name labels the resulting dataset (default "csv").
	Name string
}

// ReadCSV parses labelled samples from r into a Dataset, inferring the
// class count from the labels (which must be integers in [0, k) for some
// k) and the quantization range from the training split.
func ReadCSV(r io.Reader, opt CSVOptions) (*Dataset, error) {
	if opt.TestFraction <= 0 || opt.TestFraction >= 1 {
		opt.TestFraction = 0.3
	}
	if opt.Name == "" {
		opt.Name = "csv"
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // validated manually for better messages
	var X [][]float64
	var Y []int
	features := -1
	row := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: csv row %d: %w", row, err)
		}
		row++
		if opt.HasHeader && row == 1 {
			continue
		}
		if opt.LabelColumn >= len(rec) {
			return nil, fmt.Errorf("dataset: csv row %d has %d columns, label column is %d", row, len(rec), opt.LabelColumn)
		}
		label, err := strconv.Atoi(rec[opt.LabelColumn])
		if err != nil {
			return nil, fmt.Errorf("dataset: csv row %d: label %q: %w", row, rec[opt.LabelColumn], err)
		}
		// Labels must be dense class indices; an absurd value would later
		// drive an absurd class-table allocation.
		if label < 0 || label > maxCSVLabel {
			return nil, fmt.Errorf("dataset: csv row %d: label %d out of [0,%d]", row, label, maxCSVLabel)
		}
		x := make([]float64, 0, len(rec)-1)
		for i, cell := range rec {
			if i == opt.LabelColumn {
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: csv row %d col %d: %w", row, i, err)
			}
			// NaN sorts first and would become the quantization range's
			// low end; ±Inf would stretch it without bound.
			if !finite(v) {
				return nil, fmt.Errorf("dataset: csv row %d col %d: non-finite value %q", row, i, cell)
			}
			x = append(x, v)
		}
		if features < 0 {
			features = len(x)
		} else if len(x) != features {
			return nil, fmt.Errorf("dataset: csv row %d has %d features, want %d", row, len(x), features)
		}
		X = append(X, x)
		Y = append(Y, label)
	}
	if len(X) < 2 {
		return nil, fmt.Errorf("dataset: csv has %d samples, need ≥ 2", len(X))
	}
	classes := 0
	for _, y := range Y {
		if y+1 > classes {
			classes = y + 1
		}
	}
	if classes < 2 {
		return nil, fmt.Errorf("dataset: csv has a single class")
	}
	if classes > len(X) {
		return nil, fmt.Errorf("dataset: csv labels imply %d classes for %d samples (labels must be dense class indices)", classes, len(X))
	}
	d := &Dataset{
		Name: opt.Name, Kind: Tabular, Features: features, Classes: classes,
		UseID: true,
	}
	split(rng.New(opt.Seed), X, Y, opt.TestFraction, d)
	d.computeRange()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// LoadCSVFile is ReadCSV over a file path.
func LoadCSVFile(path string, opt CSVOptions) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if opt.Name == "" {
		opt.Name = path
	}
	return ReadCSV(f, opt)
}
