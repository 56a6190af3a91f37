//go:build race

package machine

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates on its own, making allocation counts
// meaningless (see TestNativeRunAllocsFlatInCodeSize).
const raceEnabled = true
