//go:build race

package budget

// raceEnabled reports a -race build, whose sync.Pool drops Puts at random
// (see Op.pooled).
const raceEnabled = true
