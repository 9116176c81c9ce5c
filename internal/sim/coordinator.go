// Conservative parallel discrete-event simulation (PDES).
//
// A Coordinator owns one Engine per logical process (partition) and
// advances them in lock-step time windows. The window width is the
// coordinator's lookahead: the minimum simulated time a cross-partition
// interaction needs to take effect (for the fabric, the minimum
// cross-partition link fly time). Within a window [t, t+L] every
// partition runs independently — possibly on parallel lanes — because
// no partition can affect another sooner than L in the future.
//
// Cross-partition interactions travel as timestamped mail: a partition
// executing an event calls Partition.Send, which stages a callback for
// the destination partition at now+delay with delay >= lookahead
// (violations panic — they would break the conservative guarantee).
// Mail is applied at window boundaries, sorted by (time, source
// partition, per-source sequence), so the schedule order inside every
// destination engine — and therefore the entire simulation output — is
// byte-identical for any lane count.
//
// Termination uses Engine.LiveCount (the queue length: Cancel removes
// its event at once, so every queued event is live): the system is
// quiescent when every partition's live count is zero and no mail is
// staged.
package sim

import (
	"fmt"
	"runtime/debug"
	"sort"
	"sync/atomic"

	"repro/internal/units"
)

// mail is one staged cross-partition callback.
type mail struct {
	at  units.Time
	src int32
	dst int32
	seq uint64 // per-source send counter: total order with (at, src)
	fn  func(any)
	arg any
}

// Partition is one logical process: an Engine plus an outbox for
// cross-partition mail. During Coordinator.Run a partition's engine and
// outbox are touched only by the lane currently running it, so Send
// needs no locking.
type Partition struct {
	c   *Coordinator
	id  int32
	eng *Engine
	out []mail
	seq uint64
}

// Engine returns the partition's private event engine. Callers seed
// initial events here before Coordinator.Run and may inspect it between
// runs; touching it while Run is executing is a data race.
func (p *Partition) Engine() *Engine { return p.eng }

// ID returns the partition's index within the coordinator.
func (p *Partition) ID() int { return int(p.id) }

// Send stages fn(arg) to run in partition dst at now+delay. The delay
// must be at least the coordinator's lookahead; anything shorter could
// land inside the window another lane is concurrently executing, so it
// panics rather than silently corrupt the timeline.
func (p *Partition) Send(dst int, delay units.Time, fn func(any), arg any) {
	if delay < p.c.lookahead {
		panic(fmt.Sprintf("sim: cross-partition send delay %v below lookahead %v (partition %d -> %d)",
			delay, p.c.lookahead, p.id, dst))
	}
	if dst < 0 || dst >= len(p.c.parts) {
		panic(fmt.Sprintf("sim: send to unknown partition %d of %d", dst, len(p.c.parts)))
	}
	if fn == nil {
		panic("sim: nil mail function")
	}
	p.out = append(p.out, mail{
		at:  p.eng.Now() + delay,
		src: p.id,
		dst: int32(dst),
		seq: p.seq,
		fn:  fn,
		arg: arg,
	})
	p.seq++
}

// laneResult reports one lane finishing a window, carrying a captured
// panic (nil if the lane completed cleanly).
type laneResult struct {
	part  int32
	panic any
	stack []byte
}

// Coordinator synchronizes a set of partition engines with a
// conservative time-window barrier.
type Coordinator struct {
	parts     []*Partition
	lookahead units.Time
	lanes     int

	staged []mail // flush scratch, reused between windows

	// Persistent lane workers (started lazily when lanes > 1).
	cursor  atomic.Int32
	windowT units.Time
	begin   []chan struct{}
	results chan laneResult
	started bool
	closed  bool
}

// NewCoordinator creates n partitions sharing lookahead L, executed on
// up to lanes parallel lanes (clamped to [1, n]). The lookahead must be
// positive: a zero window can never make progress.
func NewCoordinator(n int, lookahead units.Time, lanes int) *Coordinator {
	if n < 1 {
		panic(fmt.Sprintf("sim: coordinator needs >= 1 partition, got %d", n))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: non-positive lookahead %v", lookahead))
	}
	if lanes < 1 {
		lanes = 1
	}
	if lanes > n {
		lanes = n
	}
	c := &Coordinator{lookahead: lookahead, lanes: lanes}
	c.parts = make([]*Partition, n)
	for i := range c.parts {
		c.parts[i] = &Partition{c: c, id: int32(i), eng: NewEngine()}
	}
	return c
}

// Partitions returns the number of logical processes.
func (c *Coordinator) Partitions() int { return len(c.parts) }

// Lanes returns the number of execution lanes.
func (c *Coordinator) Lanes() int { return c.lanes }

// Lookahead returns the conservative window width.
func (c *Coordinator) Lookahead() units.Time { return c.lookahead }

// Partition returns logical process i.
func (c *Coordinator) Partition(i int) *Partition { return c.parts[i] }

// Quiescent reports whether no live event exists anywhere: every
// partition engine is drained (LiveCount is zero) and no mail is
// staged.
func (c *Coordinator) Quiescent() bool {
	for _, p := range c.parts {
		if p.eng.LiveCount() != 0 || len(p.out) != 0 {
			return false
		}
	}
	return true
}

// flush moves every staged mail into its destination engine. Mail is
// sorted by (time, source partition, per-source sequence) first, so the
// destination engines' internal schedule order is independent of lane
// interleaving. All staged mail is timestamped at or after every
// engine's clock (Send enforces delay >= lookahead >= window width), so
// ScheduleArgAt cannot be asked to schedule in the past.
func (c *Coordinator) flush() {
	c.staged = c.staged[:0]
	for _, p := range c.parts {
		c.staged = append(c.staged, p.out...)
		p.out = p.out[:0]
	}
	if len(c.staged) == 0 {
		return
	}
	sort.Slice(c.staged, func(i, j int) bool {
		a, b := &c.staged[i], &c.staged[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
	for i := range c.staged {
		m := &c.staged[i]
		c.parts[m.dst].eng.ScheduleArgAt(m.at, m.fn, m.arg)
		m.fn, m.arg = nil, nil // drop references until next flush
	}
}

// lbts returns the lower bound on the next event timestamp across all
// partitions (staged mail must already be flushed), with ok=false when
// no live event exists anywhere.
func (c *Coordinator) lbts() (t units.Time, ok bool) {
	for _, p := range c.parts {
		if p.eng.LiveCount() == 0 {
			continue
		}
		et, eok := p.eng.NextEventAt()
		if !eok {
			continue
		}
		if !ok || et < t {
			t, ok = et, true
		}
	}
	return t, ok
}

// Run advances every partition to the deadline, firing all events with
// timestamps <= deadline in conservative windows. On return every
// partition clock reads exactly deadline (events beyond it stay
// queued), and all cross-partition mail generated up to the deadline
// has been delivered or remains staged for a later Run.
func (c *Coordinator) Run(deadline units.Time) {
	for {
		c.flush()
		t, ok := c.lbts()
		if !ok || t > deadline {
			break
		}
		end := t + c.lookahead
		if end > deadline {
			end = deadline
		}
		c.runWindow(end)
	}
	// Advance every clock to the deadline (no live events remain at or
	// before it).
	for _, p := range c.parts {
		if p.eng.Now() < deadline {
			p.eng.RunUntil(deadline)
		}
	}
}

// runWindow runs every partition engine up to end, on parallel lanes
// when configured.
func (c *Coordinator) runWindow(end units.Time) {
	if c.lanes == 1 {
		for _, p := range c.parts {
			p.eng.RunUntil(end)
		}
		return
	}
	c.ensureWorkers()
	c.windowT = end
	c.cursor.Store(0)
	for _, ch := range c.begin {
		ch <- struct{}{}
	}
	var failed *laneResult
	for range c.begin {
		r := <-c.results
		if r.panic != nil && failed == nil {
			failed = &r
		}
	}
	if failed != nil {
		c.Close()
		panic(fmt.Sprintf("sim: partition %d panicked in window ending %v: %v\n%s",
			failed.part, end, failed.panic, failed.stack))
	}
}

// ensureWorkers lazily starts the persistent lane goroutines. Each
// window the lanes claim partitions from a shared cursor; the channel
// handshake publishes all engine state between rounds.
func (c *Coordinator) ensureWorkers() {
	if c.started {
		return
	}
	if c.closed {
		panic("sim: coordinator used after Close")
	}
	c.started = true
	c.begin = make([]chan struct{}, c.lanes)
	c.results = make(chan laneResult, c.lanes)
	for i := range c.begin {
		c.begin[i] = make(chan struct{}, 1)
		go c.laneLoop(c.begin[i])
	}
}

func (c *Coordinator) laneLoop(begin <-chan struct{}) {
	for range begin {
		r := laneResult{part: -1}
		func() {
			defer func() {
				if v := recover(); v != nil {
					r.panic, r.stack = v, debug.Stack()
				}
			}()
			for {
				i := c.cursor.Add(1) - 1
				if int(i) >= len(c.parts) {
					return
				}
				r.part = i
				c.parts[i].eng.RunUntil(c.windowT)
			}
		}()
		c.results <- r
	}
}

// Close stops the lane workers. The coordinator cannot Run afterwards.
// Calling Close on a coordinator that never went parallel is a no-op;
// Close is idempotent.
func (c *Coordinator) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if !c.started {
		return
	}
	for _, ch := range c.begin {
		close(ch)
	}
	c.started = false
}
