//go:build !race

package probnucleus_test

// raceEnabled reports that the tests run under the race detector.
const raceEnabled = false
