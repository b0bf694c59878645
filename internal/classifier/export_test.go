package classifier

// Test helpers for the external test package (package classifier_test),
// which holds the tests that corrupt a model through internal/faults:
// that package imports this one, so they cannot live in it.

var (
	SyntheticEncoded = syntheticEncoded
	FaultModel       = faultModel
	MustTrain        = mustTrain
)

// DeepCopy copies every row of m into fresh storage, independent of the
// copy-on-write sharing under test.
func DeepCopy(m *Model) *Model {
	c := NewModel(m.d, len(m.classes), m.bw)
	for i := range m.classes {
		copy(c.classes[i], m.classes[i])
		copy(c.subNorm2[i], m.subNorm2[i])
	}
	copy(c.norm2, m.norm2)
	return c
}

// SameModel reports whether a and b store the same class vectors, norms and
// sub-norms.
func SameModel(a, b *Model) bool {
	if a.d != b.d || a.bw != b.bw || len(a.classes) != len(b.classes) {
		return false
	}
	for i := range a.classes {
		if a.norm2[i] != b.norm2[i] {
			return false
		}
		for j := range a.classes[i] {
			if a.classes[i][j] != b.classes[i][j] {
				return false
			}
		}
		for k := range a.subNorm2[i] {
			if a.subNorm2[i][k] != b.subNorm2[i][k] {
				return false
			}
		}
	}
	return true
}
