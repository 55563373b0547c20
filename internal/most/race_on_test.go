//go:build race

package most

// raceEnabled reports whether the race detector instruments this build.
// TestHeapFlatWithoutHistoryHold skips under race: instrumentation is too
// slow for a million updates.
const raceEnabled = true
