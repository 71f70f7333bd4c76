//go:build !race

package core

// raceEnabled reports that the race detector is compiled in.
const raceEnabled = false
