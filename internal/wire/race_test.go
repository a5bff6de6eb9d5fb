//go:build race

package wire

// raceEnabled reports a -race build, where sync.Pool drops a share of
// what it is handed and allocation counts mean nothing.
const raceEnabled = true
