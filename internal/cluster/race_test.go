//go:build race

package cluster

// raceEnabled reports a -race build, where sync.Pool drops a random
// share of its Puts and allocation pins over pooled buffers measure the
// detector rather than the code.
const raceEnabled = true
