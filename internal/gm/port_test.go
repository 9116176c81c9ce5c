package gm

import (
	"bytes"
	"testing"

	"repro/internal/mcp"
	"repro/internal/topology"
	"repro/internal/units"
)

func TestPortOpenClose(t *testing.T) {
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), DefaultParams())
	h := r.hosts[r.nodes.Host1]
	p, err := h.OpenPort(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.ID() != 3 || p.FreeSendTokens() != 2 {
		t.Errorf("id=%d tokens=%d", p.ID(), p.FreeSendTokens())
	}
	if _, err := h.OpenPort(3, 1); err == nil {
		t.Error("double open succeeded")
	}
	if _, err := h.OpenPort(4, 0); err == nil {
		t.Error("zero send tokens accepted")
	}
	p.Close()
	if _, err := h.OpenPort(3, 1); err != nil {
		t.Errorf("reopen after close: %v", err)
	}
}

func TestPortToPortMessage(t *testing.T) {
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), DefaultParams())
	src, err := r.hosts[r.nodes.Host1].OpenPort(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := r.hosts[r.nodes.Host2].OpenPort(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	var fromPort uint8
	dst.OnReceive = func(from topology.NodeID, srcPort uint8, p []byte, _ units.Time) {
		got, fromPort = bytes.Clone(p), srcPort
	}
	dst.ProvideReceiveTokens(1)
	want := pattern(500)
	if err := src.Send(r.nodes.Host2, 5, want); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatalf("payload mismatch: %d bytes", len(got))
	}
	if fromPort != 2 {
		t.Errorf("source port = %d, want 2", fromPort)
	}
}

func TestPortHoldsMessagesUntilTokens(t *testing.T) {
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), DefaultParams())
	src, _ := r.hosts[r.nodes.Host1].OpenPort(0, 8)
	dst, _ := r.hosts[r.nodes.Host2].OpenPort(0, 1)
	received := 0
	dst.OnReceive = func(topology.NodeID, uint8, []byte, units.Time) { received++ }
	for i := 0; i < 3; i++ {
		if err := src.Send(r.nodes.Host2, 0, pattern(64)); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.Run()
	if received != 0 {
		t.Fatalf("delivered %d messages without tokens", received)
	}
	if dst.QueuedMessages() != 3 {
		t.Fatalf("queued = %d, want 3", dst.QueuedMessages())
	}
	dst.ProvideReceiveTokens(2)
	if received != 2 || dst.QueuedMessages() != 1 {
		t.Fatalf("after 2 tokens: received %d, queued %d", received, dst.QueuedMessages())
	}
	dst.ProvideReceiveTokens(5)
	if received != 3 {
		t.Fatalf("received %d, want 3", received)
	}
}

func TestPortSendTokenFlowControl(t *testing.T) {
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), DefaultParams())
	src, _ := r.hosts[r.nodes.Host1].OpenPort(0, 2)
	dst, _ := r.hosts[r.nodes.Host2].OpenPort(0, 1)
	dst.OnReceive = func(topology.NodeID, uint8, []byte, units.Time) {}
	dst.ProvideReceiveTokens(10)
	if err := src.Send(r.nodes.Host2, 0, pattern(64)); err != nil {
		t.Fatal(err)
	}
	if err := src.Send(r.nodes.Host2, 0, pattern(64)); err != nil {
		t.Fatal(err)
	}
	// Both tokens spent; a third send must fail immediately.
	if err := src.Send(r.nodes.Host2, 0, pattern(64)); err == nil {
		t.Error("send without tokens succeeded")
	}
	if src.FreeSendTokens() != 0 {
		t.Errorf("tokens = %d", src.FreeSendTokens())
	}
	// Tokens return once the messages are acknowledged.
	r.eng.Run()
	if src.FreeSendTokens() != 2 {
		t.Errorf("tokens after acks = %d, want 2", src.FreeSendTokens())
	}
	if err := src.Send(r.nodes.Host2, 0, pattern(64)); err != nil {
		t.Errorf("send after token return: %v", err)
	}
}

func TestPortSendTokensReturnWithoutAcks(t *testing.T) {
	par := DefaultParams()
	par.DisableAcks = true
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), par)
	src, _ := r.hosts[r.nodes.Host1].OpenPort(0, 1)
	dst, _ := r.hosts[r.nodes.Host2].OpenPort(0, 1)
	dst.ProvideReceiveTokens(4)
	if err := src.Send(r.nodes.Host2, 0, pattern(64)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if src.FreeSendTokens() != 1 {
		t.Errorf("token not returned in unreliable mode: %d", src.FreeSendTokens())
	}
}

func TestUnopenedPortFallsThroughToOnMessage(t *testing.T) {
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), DefaultParams())
	src, _ := r.hosts[r.nodes.Host1].OpenPort(0, 1)
	legacy := 0
	r.hosts[r.nodes.Host2].OnMessage = func(topology.NodeID, []byte, units.Time) { legacy++ }
	if err := src.Send(r.nodes.Host2, 7, pattern(32)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if legacy != 1 {
		t.Errorf("legacy deliveries = %d, want 1", legacy)
	}
}

func TestPortSendErrors(t *testing.T) {
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), DefaultParams())
	p, _ := r.hosts[r.nodes.Host1].OpenPort(0, 1)
	if err := p.Send(topology.NodeID(999), 0, nil); err == nil {
		t.Error("send to unknown host succeeded")
	}
	// The failed lookup must not consume a token.
	if p.FreeSendTokens() != 1 {
		t.Errorf("tokens = %d after failed send", p.FreeSendTokens())
	}
}

func TestProvideNegativeTokensPanics(t *testing.T) {
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), DefaultParams())
	p, _ := r.hosts[r.nodes.Host1].OpenPort(0, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p.ProvideReceiveTokens(-1)
}
