//go:build race

package main

// raceEnabled reports that the race detector slows this build severalfold,
// so the 1 s update and 2 s join deadlines say nothing.
const raceEnabled = true
