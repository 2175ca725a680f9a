//go:build race

package runtime

// raceEnabled reports whether the race detector is on; allocation-count
// assertions skip under it (sync.Pool deliberately drops items at
// random when racing, so pooled paths appear to allocate).
const raceEnabled = true
