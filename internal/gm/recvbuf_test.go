package gm

import (
	"bytes"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/mcp"
	"repro/internal/topology"
	"repro/internal/units"
)

// A message lands in the receive buffer the last handler of its size
// class returned, as GM re-posts a consumed receive buffer.
func TestReceiveBufferReused(t *testing.T) {
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), DefaultParams())
	h1, h2 := r.hosts[r.nodes.Host1], r.hosts[r.nodes.Host2]
	var bufs []*byte
	h2.OnMessage = func(_ topology.NodeID, p []byte, _ units.Time) {
		bufs = append(bufs, unsafe.SliceData(p))
	}
	// 3000 B and 2100 B share the 4 KiB class.
	for _, n := range []int{3000, 2100} {
		if err := h1.Send(h2.Node(), pattern(n)); err != nil {
			t.Fatal(err)
		}
		r.eng.Run()
	}
	if len(bufs) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(bufs))
	}
	if bufs[0] != bufs[1] {
		t.Error("the second message did not land in the buffer the first handler returned")
	}
}

// A port message queued for want of a receive token keeps its buffer:
// messages of its class that pass through the free lists meanwhile
// leave its bytes intact.
func TestQueuedPortMessageIntact(t *testing.T) {
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), DefaultParams())
	h1, h2 := r.hosts[r.nodes.Host1], r.hosts[r.nodes.Host2]
	src, err := h1.OpenPort(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := h2.OpenPort(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(64)
	if err := src.Send(h2.Node(), 2, want); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if dst.QueuedMessages() != 1 {
		t.Fatalf("queued = %d, want 1", dst.QueuedMessages())
	}
	// Legacy messages of the same class land in the free lists' buffers
	// and return them, one after the other.
	var legacy []*byte
	h2.OnMessage = func(_ topology.NodeID, p []byte, _ units.Time) {
		legacy = append(legacy, unsafe.SliceData(p))
	}
	for i := 0; i < 3; i++ {
		if err := h1.Send(h2.Node(), bytes.Repeat([]byte{0xEE}, 64)); err != nil {
			t.Fatal(err)
		}
		r.eng.Run()
	}
	if len(legacy) != 3 || legacy[1] != legacy[0] || legacy[2] != legacy[0] {
		t.Fatalf("legacy messages did not cycle one buffer: %v", legacy)
	}
	var got []byte
	dst.OnReceive = func(_ topology.NodeID, _ uint8, p []byte, _ units.Time) {
		if unsafe.SliceData(p) == legacy[0] {
			t.Error("the queued message shares a buffer with the legacy messages")
		}
		got = bytes.Clone(p)
	}
	dst.ProvideReceiveTokens(1)
	if !bytes.Equal(got, want) {
		t.Errorf("queued message changed while queued: got % x, want % x", got, want)
	}
}

// Each size class hands out buffers of exactly its size, and a
// multi-fragment assembly grows by class and ends as the message.
func TestAppendFragClasses(t *testing.T) {
	for _, tc := range []struct{ n, cap int }{{1, 1}, {3, 4}, {64, 64}, {65, 128}, {4096, 4096}} {
		if b := appendFrag(nil, make([]byte, tc.n)); len(b) != tc.n || cap(b) != tc.cap {
			t.Errorf("%d B message: len %d cap %d, want cap %d", tc.n, len(b), cap(b), tc.cap)
		}
	}
	if b := appendFrag(nil, nil); b != nil {
		t.Errorf("empty message assembled into %d B, want nil", cap(b))
	}
	want := pattern(10000)
	var asm []byte
	for i := 0; i < len(want); i += 4096 {
		asm = appendFrag(asm, want[i:min(i+4096, len(want))])
	}
	if !bytes.Equal(asm, want) || cap(asm) != 16384 {
		t.Errorf("10000 B assembly: equal %v, cap %d, want 16384", bytes.Equal(asm, want), cap(asm))
	}
}

// The free lists are shared by every host in the process, so
// simulations on several goroutines (the runner's workers) draw from
// them at once. Each delivered payload must still be its own message's
// bytes, single- and multi-fragment alike.
func TestReceiveBuffersSharedAcrossGoroutines(t *testing.T) {
	const workers, msgs = 4, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		r := newRig(t, mcp.DefaultConfig(mcp.ITB), DefaultParams())
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h1, h2 := r.hosts[r.nodes.Host1], r.hosts[r.nodes.Host2]
			sizes := []int{64, 3000, 4096, 9000}
			var want [][]byte
			got := 0
			h2.OnMessage = func(_ topology.NodeID, p []byte, _ units.Time) {
				if !bytes.Equal(p, want[got]) {
					t.Errorf("worker %d message %d: %d B arrived mangled", w, got, len(p))
				}
				got++
			}
			for i := 0; i < msgs; i++ {
				m := bytes.Repeat([]byte{byte(w*msgs + i)}, sizes[i%len(sizes)])
				want = append(want, m)
				if err := h1.Send(h2.Node(), m); err != nil {
					t.Error(err)
					return
				}
			}
			r.eng.Run()
			if got != msgs {
				t.Errorf("worker %d: delivered %d, want %d", w, got, msgs)
			}
		}(w)
	}
	wg.Wait()
}
