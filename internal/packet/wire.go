package packet

import "fmt"

// Validate checks the structural invariants of a packet's route:
// route length bounds, well-formed ITB markers (every ITBTag is
// followed by a length byte that matches the bytes that follow it,
// counting nested segment markers), and well-formed virtual-channel
// markers (every VCTag is followed by a lane byte that is itself not
// a marker).
func Validate(p *Packet) error {
	if len(p.Route) > MaxRouteLen {
		return ErrRouteTooBig
	}
	r := p.Route
	for i := 0; i < len(r); i++ {
		switch r[i] {
		case ITBTag:
			if i+1 >= len(r) {
				return fmt.Errorf("%w: ITB tag at end of route", ErrBadITB)
			}
			declared := int(r[i+1])
			actual := len(r) - i - 2
			if declared != actual {
				return fmt.Errorf("%w: ITB segment declares %d remaining bytes, have %d",
					ErrBadITB, declared, actual)
			}
			i++ // skip length byte
		case VCTag:
			if i+1 >= len(r) {
				return fmt.Errorf("%w: VC tag at end of route", ErrBadVC)
			}
			if r[i+1] == ITBTag || r[i+1] == VCTag {
				return fmt.Errorf("%w: VC lane byte %#02x is a marker", ErrBadVC, r[i+1])
			}
			i++ // skip lane byte
		}
	}
	return nil
}

// BuildITBRoute concatenates up*/down* sub-paths into one ITB route:
// segments after the first are each preceded by an ITBTag and the
// length of everything that follows, matching Figure 3.b. A single
// segment yields a plain route.
func BuildITBRoute(segments [][]byte) ([]byte, error) {
	if len(segments) == 0 {
		return nil, fmt.Errorf("packet: no route segments")
	}
	// Compute total length first to validate the remaining-length
	// bytes fit in one byte each.
	total := len(segments[0])
	for _, s := range segments[1:] {
		total += 2 + len(s)
	}
	if total > MaxRouteLen {
		return nil, ErrRouteTooBig
	}
	route := make([]byte, 0, total)
	route = append(route, segments[0]...)
	for si, s := range segments[1:] {
		// Remaining bytes after this tag+length pair: this segment
		// plus all later segments with their markers.
		rem := len(s)
		for _, later := range segments[si+2:] {
			rem += 2 + len(later)
		}
		if rem > 255 {
			return nil, ErrRouteTooBig
		}
		route = append(route, ITBTag, byte(rem))
		route = append(route, s...)
	}
	return route, nil
}

// SplitITBRoute is the inverse of BuildITBRoute: it splits a route
// back into its sub-path segments. Tests use it as an oracle for the
// routes the routing engines build. Virtual-channel [VCTag][lane] pairs embedded in a
// segment are copied through opaquely, so a lane byte can never be
// mistaken for a segment boundary.
func SplitITBRoute(route []byte) ([][]byte, error) {
	var segs [][]byte
	cur := []byte{}
	for i := 0; i < len(route); i++ {
		switch route[i] {
		case ITBTag:
			if i+1 >= len(route) {
				return nil, ErrBadITB
			}
			if int(route[i+1]) != len(route)-i-2 {
				return nil, ErrBadITB
			}
			segs = append(segs, cur)
			cur = []byte{}
			i++
		case VCTag:
			if i+1 >= len(route) {
				return nil, ErrBadVC
			}
			cur = append(cur, route[i], route[i+1])
			i++
		default:
			cur = append(cur, route[i])
		}
	}
	segs = append(segs, cur)
	return segs, nil
}
