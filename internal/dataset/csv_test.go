package dataset

import (
	"math"
	"strings"
	"testing"
)

const csvSample = `0,1.0,2.0,3.0
1,4.0,5.0,6.0
0,1.1,2.1,3.1
1,4.1,5.1,6.1
0,0.9,1.9,2.9
1,3.9,4.9,5.9
`

func TestReadCSV(t *testing.T) {
	ds, err := ReadCSV(strings.NewReader(csvSample), CSVOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Features != 3 || ds.Classes != 2 {
		t.Fatalf("shape: %d features, %d classes", ds.Features, ds.Classes)
	}
	if ds.TrainLen()+ds.TestLen() != 6 {
		t.Fatalf("split sizes %d+%d", ds.TrainLen(), ds.TestLen())
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds.Lo >= ds.Hi {
		t.Fatalf("bad range [%v,%v]", ds.Lo, ds.Hi)
	}
}

func TestReadCSVHeaderAndLabelColumn(t *testing.T) {
	in := "a,b,label\n1.0,2.0,0\n3.0,4.0,1\n1.1,2.1,0\n3.1,4.1,1\n"
	ds, err := ReadCSV(strings.NewReader(in), CSVOptions{HasHeader: true, LabelColumn: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Features != 2 || ds.Classes != 2 {
		t.Fatalf("shape: %d features, %d classes", ds.Features, ds.Classes)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"bad label":       "x,1.0\n0,2.0\n1,3.0\n",
		"negative label":  "-1,1.0\n0,2.0\n1,3.0\n",
		"bad float":       "0,abc\n1,2.0\n0,3.0\n",
		"ragged rows":     "0,1.0,2.0\n1,3.0\n0,1.0,2.0\n",
		"single class":    "0,1.0\n0,2.0\n0,3.0\n",
		"too few samples": "0,1.0\n",
		"label col range": "0\n1\n",
	}
	for name, in := range cases {
		opt := CSVOptions{Seed: 1}
		if name == "label col range" {
			opt.LabelColumn = 5
		}
		if _, err := ReadCSV(strings.NewReader(in), opt); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadCSVRejectsNonFinite: a NaN or ±Inf cell is an error naming its
// row and column, and Validate refuses a non-finite range.
func TestReadCSVRejectsNonFinite(t *testing.T) {
	for _, cell := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity", "1e999"} {
		in := strings.Replace(csvSample, "5.0", cell, 1)
		if _, err := ReadCSV(strings.NewReader(in), CSVOptions{Seed: 1}); err == nil || !strings.Contains(err.Error(), "row 2 col 2") {
			t.Errorf("cell %q: err = %v, want a row 2 col 2 error", cell, err)
		}
	}
	ds, err := ReadCSV(strings.NewReader(csvSample), CSVOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]float64{{math.NaN(), 1}, {0, math.NaN()}, {math.Inf(-1), 0}, {0, math.Inf(1)}} {
		bad := *ds
		bad.Lo, bad.Hi = r[0], r[1]
		if bad.Validate() == nil {
			t.Errorf("range [%v,%v] passed Validate", r[0], r[1])
		}
	}
}

func TestReadCSVDeterministicSplit(t *testing.T) {
	a, err := ReadCSV(strings.NewReader(csvSample), CSVOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadCSV(strings.NewReader(csvSample), CSVOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.TrainY {
		if a.TrainY[i] != b.TrainY[i] {
			t.Fatal("split not deterministic")
		}
	}
}

func TestLoadCSVFileMissing(t *testing.T) {
	if _, err := LoadCSVFile("/nonexistent.csv", CSVOptions{}); err == nil {
		t.Fatal("missing file accepted")
	}
}
