package gm

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/mcp"
	"repro/internal/topology"
	"repro/internal/units"
)

// A send refused for want of a token is a sentinel error and has no
// other effect: no message, no event, no allocation.
func TestPortSendRefusedIsFree(t *testing.T) {
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), DefaultParams())
	h := r.hosts[r.nodes.Host1]
	p, err := h.OpenPort(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	payload := pattern(64)
	if err := p.Send(r.nodes.Host2, 2, payload); err != nil {
		t.Fatal(err)
	}
	sent, live := h.Stats().MessagesSent, r.eng.LiveCount()
	if err := p.Send(r.nodes.Host2, 2, payload); !errors.Is(err, ErrNoSendTokens) {
		t.Fatalf("send without a token: err = %v, want ErrNoSendTokens", err)
	}
	allocs := testing.AllocsPerRun(200, func() { _ = p.Send(r.nodes.Host2, 2, payload) })
	if allocs != 0 {
		t.Errorf("refused Send allocates %.1f/op, want 0", allocs)
	}
	if h.Stats().MessagesSent != sent || r.eng.LiveCount() != live || p.FreeSendTokens() != 0 {
		t.Error("a refused Send changed the host's state")
	}
}

// sendAckRig is the two-host rig with one 64 B port message exchanged
// once, so the pools, queues and conn windows are warm. cycle sends
// the next message and runs it to its acknowledgement.
func sendAckRig(tb testing.TB) (cycle func(), src *Port) {
	r := newRig(tb, mcp.DefaultConfig(mcp.ITB), DefaultParams())
	src, err := r.hosts[r.nodes.Host1].OpenPort(2, 1)
	if err != nil {
		tb.Fatal(err)
	}
	dst, err := r.hosts[r.nodes.Host2].OpenPort(2, 1)
	if err != nil {
		tb.Fatal(err)
	}
	dst.ProvideReceiveTokens(1)
	dst.OnReceive = func(topology.NodeID, uint8, []byte, units.Time) { dst.ProvideReceiveTokens(1) }
	payload := pattern(64)
	cycle = func() {
		if err := src.Send(r.nodes.Host2, 2, payload); err != nil {
			tb.Fatal(err)
		}
		r.eng.Run()
	}
	cycle()
	return cycle, src
}

// A warm send→ack cycle of one port message allocates nothing: the
// send token comes back through the window entry, not through
// per-send closures, and the message lands in the receive buffer the
// previous cycle's handler returned. The count is exact only without
// the race detector, whose sync.Pool drops pooled packets.
func TestSendAckCycleAllocs(t *testing.T) {
	cycle, src := sendAckRig(t)
	const want = 0
	if allocs := testing.AllocsPerRun(200, cycle); allocs != want && !raceEnabled {
		t.Errorf("send→ack cycle allocates %.1f/op, want %d", allocs, want)
	}
	if src.FreeSendTokens() != 1 {
		t.Errorf("tokens = %d after the cycles, want 1", src.FreeSendTokens())
	}
}

// A conn declared dead with three messages in the window and two in
// the backlog settles all five as failed in send order, each port
// token returning before the caller's callback runs.
func TestDeadConnFailsInSendOrder(t *testing.T) {
	par := DefaultParams()
	par.Window = 3
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), par)
	h1, h2 := r.hosts[r.nodes.Host1], r.hosts[r.nodes.Host2]
	h2.MCP().SetStalled(true)
	p, err := h1.OpenPort(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	r1, ok := r.tbl.Lookup(h1.Node(), h2.Node())
	if !ok {
		t.Fatal("no route")
	}
	hdr, err := r1.EncodeHeader()
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	for i := 0; i < 5; i++ {
		p.sendTokens--
		i := i
		h1.sendPort(h2.Node(), pattern(64), hdr, packetTypeFor(r1), p.id, 2, outcome{
			port:    p,
			onAcked: func() { t.Errorf("message %d into a stalled peer was acked", i) },
			onFailed: func() {
				if got, want := p.FreeSendTokens(), i+1; got != want {
					t.Errorf("message %d failed with %d tokens back, want %d", i, got, want)
				}
				order = append(order, i)
			},
		})
	}
	r.eng.RunFor(10 * units.Microsecond)
	c := h1.conns[h2.Node()]
	if len(c.inflight) != 3 || c.backlog.Len() != 2 {
		t.Fatalf("window %d + backlog %d, want 3 + 2", len(c.inflight), c.backlog.Len())
	}
	c.declareDead()
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(order, want) {
		t.Errorf("failure order = %v, want %v", order, want)
	}
	if p.FreeSendTokens() != 5 {
		t.Errorf("tokens = %d after the verdict, want 5", p.FreeSendTokens())
	}
	if got := h1.Stats().MessagesFailed; got != 5 {
		t.Errorf("MessagesFailed = %d, want 5", got)
	}
}

// With acks disabled no original is kept: the outcome rides on the
// send-completion record and settles exactly once, when the tail
// leaves the NIC — before the receiver has the message.
func TestDisableAcksSettlesAtTailOut(t *testing.T) {
	par := DefaultParams()
	par.DisableAcks = true
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), par)
	h1, h2 := r.hosts[r.nodes.Host1], r.hosts[r.nodes.Host2]
	var ackedAt, receivedAt []units.Time
	h2.OnMessage = func(_ topology.NodeID, _ []byte, at units.Time) { receivedAt = append(receivedAt, at) }
	if err := h1.SendTracked(h2.Node(), pattern(64), func() { ackedAt = append(ackedAt, r.eng.Now()) }, func() {
		t.Error("message failed with acks disabled")
	}); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if len(ackedAt) != 1 || len(receivedAt) != 1 {
		t.Fatalf("acked %d times, received %d times, want 1 and 1", len(ackedAt), len(receivedAt))
	}
	if ackedAt[0] >= receivedAt[0] {
		t.Errorf("acked at %v, not before delivery at %v", ackedAt[0], receivedAt[0])
	}
}
