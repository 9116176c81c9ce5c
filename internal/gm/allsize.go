package gm

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// AllsizeResult is one row of a gm_allsize run: the mean half-round-
// trip latency for one message size.
type AllsizeResult struct {
	Size       int
	Iterations int
	// HalfRoundTrip is the mean of (round trip / 2) over the
	// iterations, the quantity the paper plots in Figures 7 and 8.
	HalfRoundTrip units.Time
	// Min and Max are per-iteration half-round-trip extremes.
	Min, Max units.Time
}

// PingRoute pins the wire route of one direction of the ping-pong.
type PingRoute struct {
	Route []byte
	Type  packet.Type
}

// AllsizeConfig drives one measurement.
type AllsizeConfig struct {
	Sizes      []int
	Iterations int
	// Forward/Back override the routes used for the ping and the
	// pong; nil uses the hosts' route tables. The Figure 8 experiment
	// pins these to the hand-built 5-crossing paths.
	Forward, Back *PingRoute
	// Warmup iterations are run and discarded before measuring.
	Warmup int
}

// DefaultAllsizeSizes mirrors the gm_allsize sweep used in the paper:
// powers of two from 1 byte to 4 KB.
func DefaultAllsizeSizes() []int {
	return []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
}

// Allsize runs the ping-pong between two hosts on a shared engine and
// returns one result per size. It replaces any OnMessage handlers the
// hosts had and clears them afterwards.
func Allsize(eng *sim.Engine, a, b *Host, cfg AllsizeConfig) ([]AllsizeResult, error) {
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("gm: allsize needs a positive iteration count")
	}
	// Both directions send from one buffer per size, as gm_allsize
	// sends from a buffer it allocated once: its bytes are zeros, and
	// GM only reads them.
	var buf []byte
	send := func(h *Host, dst *Host, pr *PingRoute) {
		if pr != nil {
			h.SendVia(dst.Node(), buf, pr.Route, pr.Type)
			return
		}
		if err := h.Send(dst.Node(), buf); err != nil {
			panic(err)
		}
	}
	defer func() {
		a.OnMessage = nil
		b.OnMessage = nil
	}()
	var out []AllsizeResult
	for _, size := range cfg.Sizes {
		iters, measured := 0, 0
		var start, sum, min, max units.Time
		done := false
		var kick func()
		buf = make([]byte, size)

		b.OnMessage = func(topology.NodeID, []byte, units.Time) {
			send(b, a, cfg.Back)
		}
		a.OnMessage = func(_ topology.NodeID, _ []byte, t units.Time) {
			half := (t - start) / 2
			if iters >= cfg.Warmup {
				sum += half
				if measured == 0 || half < min {
					min = half
				}
				if half > max {
					max = half
				}
				measured++
			}
			iters++
			if iters < cfg.Iterations+cfg.Warmup {
				kick()
			} else {
				done = true
			}
		}
		kick = func() {
			start = eng.Now()
			send(a, b, cfg.Forward)
		}
		kick()
		eng.Run()
		if !done {
			return nil, fmt.Errorf("gm: allsize deadlocked at size %d after %d iterations", size, iters)
		}
		out = append(out, AllsizeResult{
			Size:          size,
			Iterations:    measured,
			HalfRoundTrip: sum / units.Time(measured),
			Min:           min,
			Max:           max,
		})
	}
	return out, nil
}
