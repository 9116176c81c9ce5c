//go:build race

package gm

// raceEnabled: see race_off_test.go.
const raceEnabled = true
