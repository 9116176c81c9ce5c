package gm

import (
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// ErrNoSendTokens is Port.Send's refusal when every send token is
// spent: the caller must pace itself, as GM programs do. It is a
// sentinel (test it with errors.Is) so that a refused send, the common
// case of an overloaded open-loop source, costs no formatting.
var ErrNoSendTokens = errors.New("gm: no free send tokens")

// Port is GM's user-level communication endpoint. Real GM programs
// open numbered ports, provide receive buffers (tokens) before
// messages can land, and spend send tokens on transmissions — the
// flow control that makes GM "protected user-level access".
//
// A message addressed to an open port is held, in its receive buffer,
// until the application has provided a receive token; messages to
// ports nobody opened fall through to the host's legacy OnMessage
// callback.
type Port struct {
	host *Host
	id   uint8

	recvTokens int
	queued     sim.FIFO[portMsg]

	sendTokens int

	// OnReceive delivers one message per receive token. The payload
	// is GM's receive buffer: it is valid until OnReceive returns, and
	// a handler that keeps the bytes copies them.
	OnReceive func(src topology.NodeID, srcPort uint8, payload []byte, t units.Time)
}

type portMsg struct {
	src     topology.NodeID
	srcPort uint8
	payload []byte
	at      units.Time
}

// OpenPort claims a port number on the host. The port starts with the
// given number of send tokens and zero receive tokens.
func (h *Host) OpenPort(id uint8, sendTokens int) (*Port, error) {
	if h.ports == nil {
		h.ports = make(map[uint8]*Port)
	}
	if _, taken := h.ports[id]; taken {
		return nil, fmt.Errorf("gm: port %d already open on host %d", id, h.node)
	}
	if sendTokens <= 0 {
		return nil, fmt.Errorf("gm: port needs at least one send token")
	}
	p := &Port{host: h, id: id, sendTokens: sendTokens}
	h.ports[id] = p
	return p, nil
}

// Close releases the port number. Queued undelivered messages are
// discarded (GM's reliability has already acknowledged them; as on
// real GM, closing a port with unconsumed traffic loses it).
func (p *Port) Close() {
	delete(p.host.ports, p.id)
}

// ID returns the port number.
func (p *Port) ID() uint8 { return p.id }

// FreeSendTokens returns the currently available send tokens.
func (p *Port) FreeSendTokens() int { return p.sendTokens }

// QueuedMessages returns messages waiting for receive tokens.
func (p *Port) QueuedMessages() int { return p.queued.Len() }

// ProvideReceiveTokens adds n receive buffers, draining any queued
// messages into OnReceive.
func (p *Port) ProvideReceiveTokens(n int) {
	if n < 0 {
		panic("gm: negative receive tokens")
	}
	p.recvTokens += n
	p.drain()
}

func (p *Port) drain() {
	for p.recvTokens > 0 && p.queued.Len() > 0 {
		m := p.queued.Pop()
		p.recvTokens--
		if p.OnReceive != nil {
			p.OnReceive(m.src, m.srcPort, m.payload, p.host.eng.Now())
		}
		putRecvBuf(m.payload)
	}
}

// Send transmits payload to a port on another host, consuming one
// send token. The token returns when GM has acknowledged the whole
// message (or immediately after the tail leaves, with acks disabled).
// It fails with ErrNoSendTokens, and no other effect, when no token is
// free. GM reads the payload once, when it segments the message after
// the host send overhead, so the caller must not modify it until the
// token returns.
func (p *Port) Send(dst topology.NodeID, dstPort uint8, payload []byte) error {
	if p.sendTokens == 0 {
		return ErrNoSendTokens
	}
	h := p.host
	if h.tbl == nil {
		return fmt.Errorf("gm: host %d has no route table", h.node)
	}
	if h.PeerDead(dst) {
		return fmt.Errorf("gm: peer %d was declared dead", dst)
	}
	r, ok := h.tbl.Lookup(h.node, dst)
	if !ok {
		return fmt.Errorf("gm: no route %d->%d", h.node, dst)
	}
	hdr, err := r.EncodeHeader()
	if err != nil {
		return err
	}
	typ := packetTypeFor(r)
	p.sendTokens--
	// The send token comes back on either outcome: acknowledgement or
	// dead-peer failure — otherwise a failed peer would strand the
	// port's tokens forever. The message's last fragment carries the
	// port to that outcome.
	h.sendPort(dst, payload, hdr, typ, p.id, dstPort, outcome{port: p})
	return nil
}

// deliverToPort routes a completed message to its port, or reports
// false for the legacy path.
func (h *Host) deliverToPort(src topology.NodeID, srcPort, dstPort uint8, payload []byte, t units.Time) bool {
	p := h.ports[dstPort]
	if p == nil {
		return false
	}
	p.queued.Push(portMsg{src: src, srcPort: srcPort, payload: payload, at: t})
	p.drain()
	return true
}
