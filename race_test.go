//go:build race

package probnucleus_test

// raceEnabled reports that the tests run under the race detector, whose
// instrumentation distorts allocation counts.
const raceEnabled = true
