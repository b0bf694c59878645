package cluster

import (
	"testing"

	"github.com/edge-hdc/generic/internal/dataset"
)

// Parallel clustering must be bit-identical to the serial path: the model
// is frozen during each epoch's assignment scan, so chunking the scan
// cannot change any assignment or the resulting centroids.
func TestHDCWorkersBitIdentical(t *testing.T) {
	cs := dataset.MustLoadCluster("Iris", 1)
	encoded := encodeCluster(cs, 1024)
	serial := HDC(encoded, cs.K, 7, 1)
	for _, workers := range []int{2, 3, 4, 8} {
		par := HDC(encoded, cs.K, 7, workers)
		for i := range serial.Assignments {
			if par.Assignments[i] != serial.Assignments[i] {
				t.Fatalf("workers=%d: assignment %d differs: %d vs %d",
					workers, i, par.Assignments[i], serial.Assignments[i])
			}
		}
		if len(par.Centroids) != len(serial.Centroids) {
			t.Fatalf("workers=%d: centroid count differs", workers)
		}
		for c := range serial.Centroids {
			for j := range serial.Centroids[c] {
				if par.Centroids[c][j] != serial.Centroids[c][j] {
					t.Fatalf("workers=%d: centroid %d element %d differs", workers, c, j)
				}
			}
		}
	}
}
