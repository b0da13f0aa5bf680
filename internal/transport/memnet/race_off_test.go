//go:build !race

package memnet

const raceEnabled = false
