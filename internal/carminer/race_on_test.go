//go:build race

package carminer

// raceEnabled gates allocation-count assertions: the race detector makes
// sync.Pool intentionally drop items, so pooled paths allocate under -race.
const raceEnabled = true
