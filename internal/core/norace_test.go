//go:build !race

package core

// raceEnabled reports that the tests run under the race detector.
const raceEnabled = false
