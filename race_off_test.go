//go:build !race

package accelring_test

const raceEnabled = false
