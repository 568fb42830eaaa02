//go:build !race

package term_test

const raceEnabled = false
