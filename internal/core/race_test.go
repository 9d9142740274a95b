//go:build race

package core

// raceEnabled reports that the tests run under the race detector, which
// slows the kernels about tenfold; the largest differential inputs are
// skipped there.
const raceEnabled = true
