package packet

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestTypeString(t *testing.T) {
	cases := []struct {
		typ  Type
		want string
	}{
		{TypeGM, "GM"},
		{TypeMapping, "MAP"},
		{TypeIP, "IP"},
		{TypeITB, "ITB"},
		{TypeAck, "ACK"},
		{Type(0x1234), "Type(0x1234)"},
	}
	for _, c := range cases {
		if got := c.typ.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", uint16(c.typ), got, c.want)
		}
	}
}

func TestWireLenShrinksAsRouteConsumed(t *testing.T) {
	p := &Packet{Route: []byte{1, 2, 3}, Type: TypeGM, Payload: make([]byte, 64)}
	l0 := p.WireLen()
	if l0 != 3+HeaderOverhead+64 {
		t.Fatalf("WireLen = %d", l0)
	}
	b := p.ConsumeRouteByte()
	if b != 1 {
		t.Errorf("first route byte = %d, want 1", b)
	}
	if p.WireLen() != l0-1 {
		t.Errorf("WireLen after consume = %d, want %d", p.WireLen(), l0-1)
	}
	p.ConsumeRouteByte()
	p.ConsumeRouteByte()
	if !p.RouteIsDelivered() {
		t.Error("route not delivered after consuming all bytes")
	}
}

func TestConsumeRouteByteEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic consuming empty route")
		}
	}()
	(&Packet{}).ConsumeRouteByte()
}

func TestClone(t *testing.T) {
	p := &Packet{Route: []byte{1, 2}, Type: TypeGM, Payload: []byte{9, 9}, Src: 1, Dst: 2, Seq: 7}
	q := p.Clone()
	q.Route[0] = 99
	q.Payload[0] = 99
	if p.Route[0] == 99 || p.Payload[0] == 99 {
		t.Error("Clone shares backing arrays")
	}
	if q.Src != 1 || q.Dst != 2 || q.Seq != 7 {
		t.Error("Clone lost fields")
	}
}

func TestITBBoundary(t *testing.T) {
	route, err := BuildITBRoute([][]byte{{3, 1}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	p := &Packet{Route: route, Type: TypeITB}
	// Consume the first sub-path as two switches would.
	p.ConsumeRouteByte()
	p.ConsumeRouteByte()
	if !p.AtITBBoundary() {
		t.Fatal("not at ITB boundary after first segment")
	}
	rem, err := p.PopITBHeader()
	if err != nil {
		t.Fatal(err)
	}
	if rem != 2 {
		t.Errorf("remaining = %d, want 2", rem)
	}
	if p.ITBsTaken != 1 {
		t.Errorf("ITBsTaken = %d, want 1", p.ITBsTaken)
	}
	p.ConsumeRouteByte()
	p.ConsumeRouteByte()
	if !p.RouteIsDelivered() {
		t.Error("not delivered after both segments")
	}
}

func TestPopITBHeaderNotAtBoundary(t *testing.T) {
	p := &Packet{Route: []byte{1, 2}}
	if _, err := p.PopITBHeader(); !errors.Is(err, ErrBadITB) {
		t.Errorf("err = %v, want ErrBadITB", err)
	}
}

func TestPopITBHeaderLengthMismatch(t *testing.T) {
	p := &Packet{Route: []byte{ITBTag, 5, 1}}
	if _, err := p.PopITBHeader(); !errors.Is(err, ErrBadITB) {
		t.Errorf("err = %v, want ErrBadITB", err)
	}
}

func TestITBsRemainingAndSegmentLen(t *testing.T) {
	route, err := BuildITBRoute([][]byte{{3, 1, 4}, {2}, {0, 5}})
	if err != nil {
		t.Fatal(err)
	}
	p := &Packet{Route: route}
	if got := p.ITBsRemaining(); got != 2 {
		t.Errorf("ITBsRemaining = %d, want 2", got)
	}
	if got := p.NextSegmentLen(); got != 3 {
		t.Errorf("NextSegmentLen = %d, want 3", got)
	}
	if err := Validate(p); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuildITBRouteSingleSegment(t *testing.T) {
	route, err := BuildITBRoute([][]byte{{7, 8, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(route, []byte{7, 8, 9}) {
		t.Errorf("route = %v", route)
	}
}

func TestBuildITBRouteErrors(t *testing.T) {
	if _, err := BuildITBRoute(nil); err == nil {
		t.Error("empty segments: no error")
	}
	long := make([]byte, MaxRouteLen+1)
	if _, err := BuildITBRoute([][]byte{long}); !errors.Is(err, ErrRouteTooBig) {
		t.Errorf("oversized: err = %v", err)
	}
}

func TestSplitITBRouteRoundTrip(t *testing.T) {
	segs := [][]byte{{3, 1}, {2, 0, 4}, {1}}
	route, err := BuildITBRoute(segs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SplitITBRoute(route)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(segs) {
		t.Fatalf("got %d segments, want %d", len(got), len(segs))
	}
	for i := range segs {
		if !bytes.Equal(got[i], segs[i]) {
			t.Errorf("segment %d = %v, want %v", i, got[i], segs[i])
		}
	}
}

func TestSplitITBRouteMalformed(t *testing.T) {
	if _, err := SplitITBRoute([]byte{1, ITBTag}); !errors.Is(err, ErrBadITB) {
		t.Errorf("tag at end: err = %v", err)
	}
	if _, err := SplitITBRoute([]byte{ITBTag, 9, 1}); !errors.Is(err, ErrBadITB) {
		t.Errorf("bad length: err = %v", err)
	}
}

func TestValidateCatchesBadITB(t *testing.T) {
	p := &Packet{Route: []byte{1, ITBTag, 7, 2}}
	if err := Validate(p); !errors.Is(err, ErrBadITB) {
		t.Errorf("Validate = %v, want ErrBadITB", err)
	}
	p2 := &Packet{Route: []byte{1, ITBTag}}
	if err := Validate(p2); !errors.Is(err, ErrBadITB) {
		t.Errorf("Validate tag-at-end = %v, want ErrBadITB", err)
	}
	p3 := &Packet{Route: make([]byte, MaxRouteLen+1)}
	if err := Validate(p3); !errors.Is(err, ErrRouteTooBig) {
		t.Errorf("Validate oversize = %v, want ErrRouteTooBig", err)
	}
}

func TestStringContainsEssentials(t *testing.T) {
	p := &Packet{ID: 42, Type: TypeITB, Src: 1, Dst: 2, Payload: make([]byte, 10)}
	s := p.String()
	for _, want := range []string{"pkt#42", "ITB", "1->2", "10B"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

// Property: BuildITBRoute/SplitITBRoute round-trips any segment set
// that fits, and Validate accepts every built route.
func TestBuildSplitProperty(t *testing.T) {
	f := func(lens []uint8, fill byte) bool {
		if fill == ITBTag || fill == VCTag {
			fill = 0 // route bytes are port selectors, never a marker
		}
		var segs [][]byte
		total := 0
		for _, l := range lens {
			n := int(l % 5)
			if len(segs) > 0 {
				total += 2
			}
			total += n
			if total > MaxRouteLen || len(segs) >= 5 {
				break
			}
			seg := make([]byte, n)
			for i := range seg {
				seg[i] = fill
			}
			segs = append(segs, seg)
		}
		if len(segs) == 0 {
			return true
		}
		route, err := BuildITBRoute(segs)
		if err != nil {
			return false
		}
		if Validate(&Packet{Route: route}) != nil {
			return false
		}
		got, err := SplitITBRoute(route)
		if err != nil || len(got) != len(segs) {
			return false
		}
		for i := range segs {
			if !bytes.Equal(got[i], segs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
