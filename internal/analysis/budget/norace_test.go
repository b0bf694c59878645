//go:build !race

package budget

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
