package routing

import (
	"bytes"

	"repro/internal/packet"
	"repro/internal/topology"
)

// swPath is one switch pair's path record: everything of a route's
// wire header that the switch pair fixes. It is fixed-size and
// pointer-free: its header and its in-transit boundaries are spans of
// the store's arenas, which never change once written.
//
// The header is the wire header (Figure 3.b) with the ejection port
// byte of every in-transit boundary and the delivery port byte (the
// last) left 0: each segment's switch output port bytes, the segments
// after the first each preceded by an ITB tag and a length byte, with
// [VCTag][lane] pairs wherever the lane changes. The boundaries are
// listed in segment order.
type swPath struct {
	// hdr and itbs are the offsets of the header in the store's hdrs
	// and of the boundaries in its splits; hdrLen and nitbs their
	// lengths.
	hdr, itbs     uint32
	hdrLen, nitbs uint16
	// key is the switch pair (source index × switches + target index),
	// and prev one more than the index of the path stored before this
	// one for the same pair (0 for none): the store's chain of each
	// pair's paths.
	key, prev uint32
}

// itbSplit is one in-transit boundary of a path: the switch whose
// host the packet is ejected into, and the header offset of the
// ejection port byte.
type itbSplit struct {
	sw int32
	at uint16
}

// pair is a host pair's record in its source's row: eight bytes, and
// no pointer for the collector to scan. The zero value is an
// unresolved pair.
type pair struct {
	// path is 0 while the pair is unresolved, pairUnroutable once it
	// has resolved to no route, and otherwise one more than the index
	// of the route's path in the table's path store.
	path uint32
	// ejects holds the ejection port of each in-transit host, in
	// segment order, a byte each from the lowest (ejectAt). A path with
	// more than inlineEjects in-transit hosts keeps their ports in the
	// store's eject arena instead, and ejects is their offset there.
	ejects uint32
}

// inlineEjects is the number of ejection ports a pair record holds.
const inlineEjects = 4

// pairUnroutable marks a pair that resolved to no route, so a second
// Lookup of it runs no search.
const pairUnroutable = ^uint32(0)

// ejectAt returns the k-th ejection port a record holds inline.
func (p pair) ejectAt(k int) byte { return byte(p.ejects >> (8 * k)) }

// pathStore holds the path records of a lineage of tables: a table and
// every table rebuilt from it share one store, as they share their
// switch graph. It is append-only, so a pair record means the same
// route in every table of the lineage, and a rebuild adopts a
// surviving route by copying its record. Once a second table shares
// the store, a path searched again is stored once: each switch pair's
// paths are chained (head, swPath.prev), and a path that repeats one
// on its pair's chain takes the stored one's index. (Within one table
// a switch pair is searched once, so the first table needs no chain.)
// Like the tables, a store is for single-goroutine use.
type pathStore struct {
	g *engineGraph
	// chunks hold the paths, pathChunk to a chunk, so an index always
	// finds its path; chunk0 is the directory's first slot.
	chunks [][]swPath
	chunk0 [1][]swPath
	n      int
	// hdrs and splits are the arenas of the paths' headers and
	// in-transit boundaries.
	hdrs   []byte
	splits []itbSplit
	// shared is set once a second table stores paths here. head then
	// holds, per switch pair, one more than the index of its most
	// recently stored path; it is built on the first path stored after.
	shared bool
	head   []uint32
	// ejects is the eject arena: the ejection ports of the routes with
	// more in-transit hosts than a pair record holds.
	ejects []byte
}

// pathChunk is the number of paths per store chunk.
const pathChunk = 256

// rootTable is a table that starts a lineage together with the
// lineage's path store, allocated as one object so that a build pays
// one allocation for both. The store then keeps the root table's
// memory alive while any table of the lineage lives; the root is the
// table a cluster, a detector or a Finder holds for its whole run.
type rootTable struct {
	tbl   Table
	paths pathStore
}

// at returns the path stored at index i.
func (s *pathStore) at(i uint32) *swPath { return &s.chunks[i/pathChunk][i%pathChunk] }

// hdr returns the header of the stored path p.
func (s *pathStore) hdr(p *swPath) []byte {
	return s.hdrs[p.hdr : p.hdr+uint32(p.hdrLen) : p.hdr+uint32(p.hdrLen)]
}

// itbs returns the in-transit boundaries of the stored path p.
func (s *pathStore) itbs(p *swPath) []itbSplit {
	return s.splits[p.itbs : p.itbs+uint32(p.nitbs) : p.itbs+uint32(p.nitbs)]
}

// add stores the path record of a switch path from srcSw to dstSw, the
// traversals trav with in-transit resets before the itbBefore indices
// and, for lane-aware engines, the lane of each traversal, and returns
// its index. The record is written at the end of the arenas and taken
// back if it repeats a path on its pair's chain.
//
// Lane changes embed as [VCTag][lane] pairs in the header, emitted
// exactly where the wire lane (what the fabric infers while consuming
// the route: lane 0 at every injection, then the last selected lane)
// diverges from the lane the path wants for the next hop.
func (s *pathStore) add(srcSw, dstSw topology.NodeID, trav []Traversal, itbBefore []int, lanes []uint8) uint32 {
	if s.hdrs == nil {
		s.hdrs = make([]byte, 0, 64)
	}
	n := headerLen(trav, itbBefore, lanes)
	p := swPath{hdr: uint32(len(s.hdrs)), itbs: uint32(len(s.splits)), hdrLen: uint16(n), nitbs: uint16(len(itbBefore))}
	hdr := s.hdrs
	wireLane := uint8(0)
	// split ends the segment at sw: the ejection port byte (written
	// per route), then the next segment's ITB tag and the length of
	// everything after the length byte (Figure 3.b). The re-injection
	// is a fresh lane-0 entry.
	split := func(sw topology.NodeID) {
		s.splits = append(s.splits, itbSplit{sw: int32(sw), at: uint16(len(hdr) - int(p.hdr))})
		hdr = append(hdr, 0, packet.ITBTag, byte(n-(len(hdr)-int(p.hdr))-3))
		wireLane = 0
	}
	// Split trav at the itbBefore indices.
	nextITB := 0
	curSw := srcSw
	for i, tr := range trav {
		for nextITB < len(itbBefore) && itbBefore[nextITB] == i {
			split(curSw)
			nextITB++
		}
		if lanes != nil && lanes[i] != wireLane {
			hdr = append(hdr, packet.VCTag, lanes[i])
			wireLane = lanes[i]
		}
		hdr = append(hdr, byte(tr.Link.PortAt(tr.From)))
		curSw = tr.To()
	}
	// Trailing resets (ITB at the destination switch) would be
	// pointless; the search never produces them, but guard anyway.
	for ; nextITB < len(itbBefore); nextITB++ {
		split(curSw)
	}
	// The delivery port byte, written per route. A header longer than
	// packet.MaxRouteLen is stored too: AppendHeader reports it.
	s.hdrs = append(hdr, 0)

	nsw := len(s.g.sws)
	p.key = uint32(int(s.g.sidx[srcSw])*nsw + int(s.g.sidx[dstSw]))
	if !s.shared {
		return s.put(p)
	}
	if s.head == nil {
		s.head = make([]uint32, nsw*nsw)
		for i := range uint32(s.n) {
			q := s.at(i)
			q.prev, s.head[q.key] = s.head[q.key], i+1
		}
	}
	shaped := s.hdrs[p.hdr:]
	for i := s.head[p.key]; i != 0; i = s.at(i - 1).prev {
		if bytes.Equal(s.hdr(s.at(i-1)), shaped) {
			s.hdrs, s.splits = s.hdrs[:p.hdr], s.splits[:p.itbs]
			return i - 1
		}
	}
	p.prev = s.head[p.key]
	i := s.put(p)
	s.head[p.key] = i + 1
	return i
}

// put stores the path record p, whose header and boundaries are
// already in the arenas, and returns its index. The first chunk starts
// small and grows to pathChunk records, so a small lineage holds a
// small store.
func (s *pathStore) put(p swPath) uint32 {
	if s.n%pathChunk == 0 {
		if s.chunks == nil {
			s.chunks = s.chunk0[:0]
		}
		s.chunks = append(s.chunks, make([]swPath, 0, min(16+s.n, pathChunk)))
	}
	c := &s.chunks[len(s.chunks)-1]
	*c = append(*c, p)
	s.n++
	return uint32(s.n - 1)
}

// headerLen is the wire header length of a path: a port byte per
// traversal and one for the delivery, an ejection port byte plus an
// ITB tag and length byte per reset, and a VCTag/lane pair wherever
// the wanted lane differs from the wire lane.
func headerLen(trav []Traversal, itbBefore []int, lanes []uint8) int {
	n := len(trav) + 1 + 3*len(itbBefore)
	if lanes == nil {
		return n
	}
	wireLane, nextITB := uint8(0), 0
	for i := range trav {
		for nextITB < len(itbBefore) && itbBefore[nextITB] == i {
			wireLane = 0
			nextITB++
		}
		if lanes[i] != wireLane {
			n += 2
			wireLane = lanes[i]
		}
	}
	return n
}
