package dataset

import (
	"strings"
	"testing"
)

// FuzzReadCSV hardens the CSV loader: arbitrary input must yield an error
// or a valid dataset with finite features and a finite range, the range of
// a full sort — never a panic.
func FuzzReadCSV(f *testing.F) {
	f.Add("0,1.0,2.0\n1,3.0,4.0\n0,1.1,2.1\n1,3.1,4.1\n", 0, false)
	f.Add("h1,h2,label\n1.0,2.0,0\n3.0,4.0,1\n", 2, true)
	f.Add("", 0, false)
	f.Add("0\n1\n", 0, false)
	f.Add("0,NaN\n1,Inf\n0,1\n1,2\n", 0, false)
	f.Fuzz(func(t *testing.T, in string, labelCol int, header bool) {
		if labelCol < 0 || labelCol > 16 {
			labelCol = 0
		}
		ds, err := ReadCSV(strings.NewReader(in), CSVOptions{
			LabelColumn: labelCol, HasHeader: header, Seed: 1,
		})
		if err != nil {
			return
		}
		if verr := ds.Validate(); verr != nil {
			t.Fatalf("parsed dataset fails validation: %v", verr)
		}
		if !finite(ds.Lo) || !finite(ds.Hi) {
			t.Fatalf("accepted a non-finite range [%v,%v]", ds.Lo, ds.Hi)
		}
		if lo, hi := sortedRange(ds.TrainX); ds.Lo != lo || ds.Hi != hi {
			t.Fatalf("range [%v,%v], sort gives [%v,%v]", ds.Lo, ds.Hi, lo, hi)
		}
		for _, X := range [][][]float64{ds.TrainX, ds.TestX} {
			for _, x := range X {
				for _, v := range x {
					if !finite(v) {
						t.Fatalf("accepted a non-finite feature %v", v)
					}
				}
			}
		}
	})
}
