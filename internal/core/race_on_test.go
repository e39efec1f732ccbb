//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; timing
// tests skip themselves under it.
const raceEnabled = true
