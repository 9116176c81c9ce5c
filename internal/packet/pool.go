package packet

import (
	"sync"
	"sync/atomic"
)

// Pool of Packet objects for the simulation hot path. A steady-state
// GM exchange creates one wire packet per (re)transmission and one per
// acknowledgement; recycling them through a pool removes that per-send
// allocation (and the two slice allocations behind Route and Payload,
// whose capacity survives the round trip).
//
// Release discipline: a packet is released exactly once, by the layer
// that consumed it — GM's deliver path Puts wire packets and acks, the
// connection state Puts acknowledged or abandoned originals, and every
// drop path (misroute, fault kill, CRC flush, buffer-pool overflow,
// stale-incarnation discard) calls Recycle at the single point where the
// packet leaves the simulation. Recycle is safe on packets that did
// not come from the pool (mapper scouts, MCP replies, recovery probes,
// fault-injected duplicates): only pool-tracked packets carry the
// pooled mark, so foreign packets fall through to the garbage
// collector exactly as before.
var pool = sync.Pool{New: func() any { return new(Packet) }}

// gets/puts count pool checkouts and returns. Their difference is the
// number of pool packets logically alive in a simulation — the value
// the leak tests pin to a steady state under sustained drops.
var gets, puts atomic.Uint64

// Get returns a zeroed packet whose Route and Payload keep the
// capacity of their previous life. The ID is zero, so the fabric's
// TagPacket assigns a fresh trace id on injection exactly as it does
// for a packet built with new(Packet).
func Get() *Packet {
	gets.Add(1)
	p := pool.Get().(*Packet)
	p.pooled = true
	return p
}

// Put recycles a packet the caller has finished with. The caller must
// hold the only live reference. Putting a packet that did not come
// from Get/ClonePooled donates it to the pool without counting it.
func Put(p *Packet) {
	if p.pooled {
		puts.Add(1)
	}
	route := p.routeBuf
	if route == nil {
		route = p.Route // a route set directly: keep what is left of it
	}
	route, payload := route[:0], p.Payload[:0]
	*p = Packet{Route: route, Payload: payload, routeBuf: route}
	pool.Put(p)
}

// Recycle releases a packet that died in the network or in the NIC.
// Pool packets are Put; packets allocated outside the pool (whose
// creators may retain references — scout retry state, probe ledgers)
// are left to the garbage collector. This is the one release call drop
// paths may use without knowing the packet's provenance.
func Recycle(p *Packet) {
	if p != nil && p.pooled {
		Put(p)
	}
}

// PoolOutstanding returns the number of pool packets currently checked
// out (Get/ClonePooled minus Put). A simulation that has quiesced with
// every endpoint drained should hold this near zero; sustained growth
// under drops is the leak the release discipline exists to prevent.
func PoolOutstanding() int64 {
	return int64(gets.Load()) - int64(puts.Load())
}

// CloneInto deep-copies p into q, reusing q's slice capacity. q's
// previous contents are discarded, but its pool provenance is its own:
// cloning a pool packet into a heap packet (or vice versa) must not
// transfer the pooled mark.
func (p *Packet) CloneInto(q *Packet) {
	buf, payload, qp := q.routeBuf, q.Payload[:0], q.pooled
	*q = *p
	q.routeBuf = buf
	q.SetRoute(p.Route)
	q.Payload = append(payload, p.Payload...)
	q.pooled = qp
}

// ClonePooled is Clone backed by the pool: the copy should be released
// with Put (or Recycle on a drop path) by whoever consumes it.
func (p *Packet) ClonePooled() *Packet {
	q := Get()
	p.CloneInto(q)
	return q
}
