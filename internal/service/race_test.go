//go:build race

package service

// raceEnabled reports a -race build. Tests that replay a long stream from
// one goroutine skip under it: the detector has nothing to find in them,
// and they run about twenty times slower.
const raceEnabled = true
