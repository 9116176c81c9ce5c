package routing

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// routeViewsDigest is the sha256 over every route of a table, in
// host-major order, of its endpoints, wire header, in-transit hosts,
// link path as (link id, from), switch path, the lane of every link
// traversal (0 where the route has no lanes) and segments. Every
// integer is written as a little-endian int64, and every list is
// preceded by its length.
func routeViewsDigest(tbl *Table) string {
	h := sha256.New()
	for _, r := range tbl.Routes() {
		writeRouteViews(h, r)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// writeRouteViews writes one route's views into h (see
// routeViewsDigest).
func writeRouteViews(h hash.Hash, r Route) {
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	putBytes := func(b []byte) {
		put(len(b))
		h.Write(b)
	}
	put(int(r.Src))
	put(int(r.Dst))
	if hdr, err := r.EncodeHeader(); err != nil {
		put(-1) // over-long header
	} else {
		putBytes(hdr)
	}
	put(len(r.ITBHosts()))
	for _, x := range r.ITBHosts() {
		put(int(x))
	}
	links, lanes := r.LinkPath(), r.Lanes()
	put(len(links))
	for k, tr := range links {
		put(tr.Link.ID)
		put(int(tr.From))
		lane := uint8(0)
		if lanes != nil {
			lane = lanes[k]
		}
		put(int(lane))
	}
	sws := r.SwitchPath()
	put(len(sws))
	for _, sw := range sws {
		put(int(sw))
	}
	segs := r.Segments()
	put(len(segs))
	for _, seg := range segs {
		putBytes(seg)
	}
}

// TestRouteViewsGolden pins every view of every table route of every
// engine configuration on irregular-64 (seed 1), fattree-64 and
// dragonfly-72: eager tables fault-free and under two of the suite's
// exclusion sets, and a lazily rebuilt table of the fault-free one
// under a third, resolved in host-major order. The views a route
// decodes from its header must reproduce the digests the stored
// slices gave.
//
//	REGEN_GOLDEN=1 go test ./internal/routing/ -run TestRouteViewsGolden
func TestRouteViewsGolden(t *testing.T) {
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
		for _, e := range pathEngines() {
			var base *Table
			for ai, avoid := range []*Avoid{nil, drawn[3], drawn[4]} {
				tbl, err := e.BuildTable(tp, avoid)
				if err != nil {
					t.Fatalf("%s %s avoid %d: %v", c.name, engineLabel(e), ai, err)
				}
				if base == nil {
					base = tbl
				}
				fmt.Fprintf(&b, "%s %s avoid%d %s\n", c.name, engineLabel(e), ai, routeViewsDigest(tbl))
			}
			lazy := base.RebuildLazy(drawn[1], nil)
			fmt.Fprintf(&b, "%s %s lazy1 %s\n", c.name, engineLabel(e), routeViewsDigest(lazy))
		}
	}
	path := filepath.Join("testdata", "route_views.golden")
	if os.Getenv("REGEN_GOLDEN") != "" {
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
		t.Errorf("route views drifted from %s.\n--- got ---\n%s--- want ---\n%s", path, b.String(), want)
	}
}
