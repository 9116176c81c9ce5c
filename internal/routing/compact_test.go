package routing

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/topology"
)

// arenaDigest is the sha256 of a CompactTable's offset array (as
// little-endian uint32s) followed by its step arena.
func arenaDigest(ct *CompactTable) string {
	h := sha256.New()
	buf := make([]byte, 4*len(ct.off))
	for i, o := range ct.off {
		binary.LittleEndian.PutUint32(buf[4*i:], o)
	}
	h.Write(buf)
	h.Write(ct.steps)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCompactArenaGolden pins the compact arena bytes of every engine
// configuration on irregular-64 (seed 1), fattree-64 and dragonfly-72:
// fault-free, under two dead links and a dead host, and under a
// "fallback" exclusion set (the hosts of about half the switches
// dead). The engine-study golden pins only the
// analysis numbers, which do not depend on which in-transit host a
// path ejects into; this file does.
//
//	REGEN_GOLDEN=1 go test ./internal/routing/ -run TestCompactArenaGolden
func TestCompactArenaGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range []struct {
		name, class string
		hosts       int
	}{
		{"irregular-64", "irregular", 64},
		{"fattree-64", "fattree", 64},
		{"dragonfly-72", "dragonfly", 72},
	} {
		tp := propTopology(t, c.class, c.hosts, 1)
		drawn := randomAvoids(tp, rand.New(rand.NewSource(1)))
		avoids := []*Avoid{nil, drawn[3], drawn[4]}
		for _, e := range pathEngines() {
			for ai, avoid := range avoids {
				ct, err := BuildCompact(e, tp, avoid)
				if err != nil {
					t.Fatalf("%s %s avoid %d: %v", c.name, engineLabel(e), ai, err)
				}
				fmt.Fprintf(&b, "%s %s avoid%d %s\n", c.name, engineLabel(e), ai, arenaDigest(ct))
			}
		}
	}
	path := filepath.Join("testdata", "compact_arena.golden")
	if os.Getenv("REGEN_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with REGEN_GOLDEN=1 to create): %v", err)
	}
	if b.String() != string(want) {
		t.Errorf("compact arenas drifted from %s.\n--- got ---\n%s--- want ---\n%s", path, b.String(), want)
	}
}

// clockwiseRing hand-builds a CompactTable on a six-switch ring in
// which every switch pair routes clockwise, each path prefixed with
// prefix. Clockwise routes around a ring close a channel dependency
// cycle, and some of them turn down->up under the BFS orientation.
func clockwiseRing(lanes int, prefix ...byte) *CompactTable {
	tp := topology.Ring(6, 1)
	sws := tp.Switches()
	n := len(sws)
	cw := make([]byte, n) // clockwise output port per switch index
	for i, sw := range sws {
		for _, nb := range tp.SwitchNeighbors(sw) {
			if nb.Node == sws[(i+1)%n] {
				cw[i] = byte(nb.Link.PortAt(sw))
			}
		}
	}
	ct := &CompactTable{
		EngineName: "clockwise",
		t:          tp,
		ud:         topology.BuildUpDown(tp),
		sws:        sws,
		sidx:       make([]int32, tp.NumNodes()),
		off:        make([]uint32, n*n+1),
		lanes:      lanes,
	}
	for i := range ct.sidx {
		ct.sidx[i] = -1
	}
	for i, sw := range sws {
		ct.sidx[sw] = int32(i)
	}
	for si := 0; si < n; si++ {
		for di := 0; di < n; di++ {
			ct.off[si*n+di] = uint32(len(ct.steps))
			if si != di {
				ct.steps = append(ct.steps, prefix...)
				for k := si; k != di; k = (k + 1) % n {
					ct.steps = append(ct.steps, cw[k])
				}
			}
		}
	}
	ct.off[n*n] = uint32(len(ct.steps))
	return ct
}

// TestCompactCertificateRejects is the negative side of the arena
// certificate: CheckDeadlockFree must find the cycle of clockwise ring
// routes both in a single-lane table (the port-bitmask checker) and in
// a two-lane table whose routes ride lane 1 (the lane-aware CDG), and
// Validate must reject a down->up hop and a hop over an excluded link.
func TestCompactCertificateRejects(t *testing.T) {
	for _, ct := range []*CompactTable{clockwiseRing(1), clockwiseRing(2, stepVC, 1)} {
		err := ct.CheckDeadlockFree()
		if err == nil || !strings.Contains(err.Error(), "cycle") {
			t.Errorf("%d-lane clockwise ring: CheckDeadlockFree = %v, want a dependency cycle", ct.Lanes(), err)
		}
		if err := ct.Validate(); err == nil || !strings.Contains(err.Error(), "illegal down->up") {
			t.Errorf("%d-lane clockwise ring: Validate = %v, want an illegal down->up transition", ct.Lanes(), err)
		}
	}

	ring := topology.Ring(6, 1)
	ct, err := BuildCompact(ITBRouting, ring, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.Validate(); err != nil {
		t.Fatalf("updown-itb ring table: %v", err)
	}
	if err := ct.CheckDeadlockFree(); err != nil {
		t.Fatalf("updown-itb ring table: %v", err)
	}
	var used int
	if err := ct.forEachStep(0, 1, func(l *topology.Link, _ topology.NodeID) error {
		used = l.ID
		return nil
	}, nil, nil); err != nil {
		t.Fatal(err)
	}
	ct.avoid = AvoidLinks(used)
	if err := ct.Validate(); err == nil || !strings.Contains(err.Error(), "excluded link") {
		t.Errorf("Validate with the path's link excluded = %v, want an excluded-link error", err)
	}
}
