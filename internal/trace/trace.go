// Package trace records packet-lifecycle events from the fabric, the
// MCP firmware and the GM layer, for debugging simulations and for
// verifying mechanism behaviour in tests (e.g. that an in-transit
// packet was detected, re-injected, and delivered in that order).
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/topology"
	"repro/internal/units"
)

// Kind classifies an event.
type Kind int

// Event kinds, in rough lifecycle order.
const (
	Inject       Kind = iota // packet header offered to the network
	HeaderOut                // header left the source NIC
	HeaderArrive             // header reached a host port
	Delivered                // tail fully received at a host
	Dropped                  // flushed (misroute or pool overflow)
	ITBDetect                // in-transit marker recognised
	ITBPending               // send engine busy; pending flag raised
	ITBReinject              // re-injection programmed
	SendQueued               // GM handed a packet to the MCP
	RecvToHost               // RDMA to host memory complete
	Retransmit               // GM go-back-N retransmission
	LinkFault                // a link failed or recovered (detail: down/up/ber)
	NICFault                 // a NIC fault event (detail: stall/resume/pool-exhaust/pool-restore)
	PeerDead                 // GM declared a peer dead after repeated timeouts
	// Recovery-protocol kinds.
	Heartbeat       // recovery probe sent or answered
	HostSuspected   // heartbeat misses crossed the suspect threshold
	HostConfirmed   // heartbeat misses crossed the confirm threshold
	HostRestored    // a suspected/confirmed host answered again
	EpochPublish    // a new epoch-versioned route table started distributing
	EpochInstall    // one host installed the epoch's table
	PeerResurrected // a dead-peer verdict was lifted by a table install
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Inject:
		return "inject"
	case HeaderOut:
		return "header-out"
	case HeaderArrive:
		return "header-arrive"
	case Delivered:
		return "delivered"
	case Dropped:
		return "dropped"
	case ITBDetect:
		return "itb-detect"
	case ITBPending:
		return "itb-pending"
	case ITBReinject:
		return "itb-reinject"
	case SendQueued:
		return "send-queued"
	case RecvToHost:
		return "recv-to-host"
	case Retransmit:
		return "retransmit"
	case LinkFault:
		return "link-fault"
	case NICFault:
		return "nic-fault"
	case PeerDead:
		return "peer-dead"
	case Heartbeat:
		return "heartbeat"
	case HostSuspected:
		return "host-suspected"
	case HostConfirmed:
		return "host-confirmed"
	case HostRestored:
		return "host-restored"
	case EpochPublish:
		return "epoch-publish"
	case EpochInstall:
		return "epoch-install"
	case PeerResurrected:
		return "peer-resurrected"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one recorded occurrence.
type Event struct {
	At     units.Time
	Kind   Kind
	Node   topology.NodeID // where it happened
	Packet uint64          // packet id (0 if not applicable)
	Detail string
}

// String renders one line.
func (e Event) String() string {
	s := fmt.Sprintf("%12s %-13s node=%d pkt=%d", e.At, e.Kind, e.Node, e.Packet)
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// Recorder collects events in a bounded circular ring. The zero value
// is unusable; use NewRecorder. Recorders are not goroutine safe — the
// simulation is single-threaded by design.
//
// Record is O(1): once the ring is full, the newest event overwrites
// the oldest in place (the previous implementation shifted the whole
// slice on every overflow, an O(max) cost on the tracing hot path).
type Recorder struct {
	buf []Event
	// head is the index of the oldest retained event; non-zero only
	// after the ring has wrapped.
	head  int
	max   int
	total uint64
}

// NewRecorder keeps at most max events (older ones are discarded).
// max <= 0 means unbounded.
func NewRecorder(max int) *Recorder {
	return &Recorder{max: max}
}

// Record appends an event, overwriting the oldest retained one when
// the ring is full.
func (r *Recorder) Record(e Event) {
	r.total++
	if r.max > 0 && len(r.buf) == r.max {
		r.buf[r.head] = e
		r.head++
		if r.head == len(r.buf) {
			r.head = 0
		}
		return
	}
	r.buf = append(r.buf, e)
}

// Events returns the retained events in oldest-to-newest recording
// order, unrolling the ring across the wraparound point. Before any
// wraparound the internal slice is returned as-is (shared; do not
// modify); after wraparound a fresh ordered copy is returned.
func (r *Recorder) Events() []Event {
	if r.head == 0 {
		return r.buf
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}

// Total returns how many events were ever recorded, including those
// the bounded ring has since discarded.
func (r *Recorder) Total() uint64 { return r.total }

// Retained returns how many events the ring currently holds.
func (r *Recorder) Retained() int { return len(r.buf) }

// Discarded returns how many recorded events the bounded ring has
// overwritten: Total() minus the retained count.
func (r *Recorder) Discarded() uint64 { return r.total - uint64(len(r.buf)) }

// Packet returns the retained events of one packet, in order.
func (r *Recorder) Packet(id uint64) []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.Packet == id {
			out = append(out, e)
		}
	}
	return out
}

// OfKind returns the retained events of one kind, in order.
func (r *Recorder) OfKind(k Kind) []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// WriteText dumps the retained events in order, one per line.
func (r *Recorder) WriteText(w io.Writer) error {
	for _, e := range r.Events() {
		if _, err := fmt.Fprintln(w, e); err != nil {
			return err
		}
	}
	return nil
}

// jsonlEvent is the structured export schema of one event.
type jsonlEvent struct {
	AtPs   int64  `json:"at_ps"`
	Kind   string `json:"kind"`
	Node   int    `json:"node"`
	Packet uint64 `json:"packet,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// WriteJSONL exports the retained events in order as JSON Lines, one
// object per event: {"at_ps":..., "kind":"...", "node":..., "packet":...,
// "detail":"..."}. Timestamps are simulated picoseconds. The encoding
// is deterministic, so exports diff cleanly across runs.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range r.Events() {
		if err := enc.Encode(jsonlEvent{
			AtPs:   int64(e.At),
			Kind:   e.Kind.String(),
			Node:   int(e.Node),
			Packet: e.Packet,
			Detail: e.Detail,
		}); err != nil {
			return err
		}
	}
	return nil
}
