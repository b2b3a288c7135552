//go:build !race

package mpf

// raceEnabled reports a race-detector build; see differential_race_test.go.
const raceEnabled = false
