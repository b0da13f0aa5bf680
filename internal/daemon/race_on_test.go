//go:build race

package daemon

// raceEnabled reports whether this test binary was built with the race
// detector, under which sync.Pool deliberately drops Puts at random —
// invalidating allocation-count assertions on pooled bursts.
const raceEnabled = true
