//go:build !race

package ldl1

const raceEnabled = false
