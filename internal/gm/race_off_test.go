//go:build !race

package gm

// raceEnabled reports whether the race detector instruments this test
// binary. Under it sync.Pool.Put drops a random share of the items it
// is given, so a pooled packet is sometimes allocated afresh and exact
// allocation counts do not hold.
const raceEnabled = false
