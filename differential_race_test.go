//go:build race

package mpf

// raceEnabled reports a race-detector build, under which
// TestQueryDifferential runs a reduced input set: the detector slows
// execution about twentyfold.
const raceEnabled = true
