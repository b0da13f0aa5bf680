//go:build race

package accelring_test

// raceEnabled reports whether this test binary was built with the race
// detector, which adds allocations of its own and drops sync.Pool Puts at
// random — invalidating allocation-count assertions.
const raceEnabled = true
