//go:build race

package serve

// raceEnabled gates allocation-count assertions, which the race detector's
// instrumentation does not keep.
const raceEnabled = true
