//go:build race

package sched

// raceEnabled reports that the race detector is compiled in.
const raceEnabled = true
