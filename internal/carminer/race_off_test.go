//go:build !race

package carminer

const raceEnabled = false
