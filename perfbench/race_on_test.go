//go:build race

package main

// raceEnabled reports whether the race detector instruments this build; its
// own frames then dominate CPU profiles.
const raceEnabled = true
