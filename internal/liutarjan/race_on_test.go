//go:build race

package liutarjan

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
