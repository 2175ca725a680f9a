//go:build !race

package runtime

// See race_enabled_test.go.
const raceEnabled = false
