package lanai

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/units"
)

func TestCPUSerialExecution(t *testing.T) {
	eng := sim.NewEngine()
	cpu := NewCPU(eng, 66*units.MHz, 0)
	var order []int
	var times []units.Time
	cpu.PostArg(PrioRecv, 10, func(any) { order = append(order, 1); times = append(times, eng.Now()) }, nil)
	cpu.PostArg(PrioRecv, 10, func(any) { order = append(order, 2); times = append(times, eng.Now()) }, nil)
	eng.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
	ten := (66 * units.MHz).Cycles(10)
	if times[0] != ten {
		t.Errorf("first task done at %v, want %v", times[0], ten)
	}
	if times[1] != 2*ten {
		t.Errorf("second task done at %v, want %v (serialised)", times[1], 2*ten)
	}
	if cpu.Executed != 2 {
		t.Errorf("Executed = %d", cpu.Executed)
	}
	if cpu.BusyTime != 2*ten {
		t.Errorf("BusyTime = %v, want %v", cpu.BusyTime, 2*ten)
	}
}

func TestCPUPriorityDispatch(t *testing.T) {
	eng := sim.NewEngine()
	cpu := NewCPU(eng, 66*units.MHz, 0)
	var order []string
	// While a long low-priority task runs, queue a high and a low
	// task; the high one must be dispatched first.
	cpu.PostArg(PrioSend, 100, func(any) { order = append(order, "first") }, nil)
	cpu.PostArg(PrioSend, 10, func(any) { order = append(order, "low") }, nil)
	cpu.PostArg(PrioITB, 10, func(any) { order = append(order, "itb") }, nil)
	eng.Run()
	want := []string{"first", "itb", "low"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCPUSamePriorityFIFO(t *testing.T) {
	eng := sim.NewEngine()
	cpu := NewCPU(eng, 66*units.MHz, 0)
	var order []int
	cpu.PostArg(PrioRecv, 50, func(any) {}, nil)
	for i := 0; i < 10; i++ {
		i := i
		cpu.PostArg(PrioRecv, 1, func(any) { order = append(order, i) }, nil)
	}
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-priority order violated: %v", order)
		}
	}
}

func TestCPUDispatchOverhead(t *testing.T) {
	eng := sim.NewEngine()
	cpu := NewCPU(eng, 66*units.MHz, 2)
	var done units.Time
	cpu.PostArg(PrioRecv, 8, func(any) { done = eng.Now() }, nil)
	eng.Run()
	want := (66 * units.MHz).Cycles(10) // 8 + 2 dispatch
	if done != want {
		t.Errorf("done at %v, want %v", done, want)
	}
}

func TestCPUBusyAndQueueLen(t *testing.T) {
	eng := sim.NewEngine()
	cpu := NewCPU(eng, 66*units.MHz, 0)
	if cpu.Busy() {
		t.Error("new CPU busy")
	}
	cpu.PostArg(PrioRecv, 1000, func(any) {}, nil)
	cpu.PostArg(PrioRecv, 1, func(any) {}, nil)
	if !cpu.Busy() {
		t.Error("CPU idle with queued work")
	}
	if cpu.QueueLen() != 1 {
		t.Errorf("QueueLen = %d, want 1", cpu.QueueLen())
	}
	eng.Run()
	if cpu.Busy() || cpu.QueueLen() != 0 {
		t.Error("CPU not idle after drain")
	}
}

func TestCPUPanics(t *testing.T) {
	eng := sim.NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewCPU(eng, 0, 0)
}

func TestCPUNegativeCyclesPanics(t *testing.T) {
	eng := sim.NewEngine()
	cpu := NewCPU(eng, units.MHz, 0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	cpu.PostArg(PrioRecv, -1, func(any) {}, nil)
}

func TestHostDMASerialises(t *testing.T) {
	eng := sim.NewEngine()
	nic := NewNIC(eng, DefaultParams())
	var t1, t2 units.Time
	nic.HostDMA(4096, func(_ any, tm units.Time) { t1 = tm }, nil)
	nic.HostDMA(4096, func(_ any, tm units.Time) { t2 = tm }, nil)
	if nic.HostDMAQueued() != 1 {
		t.Errorf("queued = %d, want 1", nic.HostDMAQueued())
	}
	eng.Run()
	per := DefaultParams().HostDMAStartup + units.TransferTime(4096, DefaultParams().HostDMABandwidth)
	if t1 != per {
		t.Errorf("first DMA done at %v, want %v", t1, per)
	}
	if t2 != 2*per {
		t.Errorf("second DMA done at %v, want %v (serialised)", t2, 2*per)
	}
	if nic.HostDMATransfers != 2 {
		t.Errorf("transfers = %d", nic.HostDMATransfers)
	}
	if nic.HostDMABusy != 2*per {
		t.Errorf("busy = %v, want %v", nic.HostDMABusy, 2*per)
	}
}

func TestHostDMAZeroBytes(t *testing.T) {
	eng := sim.NewEngine()
	nic := NewNIC(eng, DefaultParams())
	var done units.Time
	nic.HostDMA(0, func(_ any, tm units.Time) { done = tm }, nil)
	eng.Run()
	if done != DefaultParams().HostDMAStartup {
		t.Errorf("zero-byte DMA took %v, want just startup", done)
	}
}

// Property: N equal tasks at one priority finish in exactly
// N*(cycles+dispatch) cycles regardless of posting pattern.
func TestCPUThroughputProperty(t *testing.T) {
	f := func(nRaw, cycRaw uint8) bool {
		n := int(nRaw%20) + 1
		cyc := int(cycRaw%50) + 1
		eng := sim.NewEngine()
		cpu := NewCPU(eng, 66*units.MHz, 2)
		done := 0
		for i := 0; i < n; i++ {
			cpu.PostArg(PrioRecv, cyc, func(any) { done++ }, nil)
		}
		eng.Run()
		want := units.Time(n) * (66 * units.MHz).Cycles(cyc+2)
		return done == n && cpu.BusyTime == want && eng.Now() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
