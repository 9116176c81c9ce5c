package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/mcp"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/topology"
)

// rep is one repetition of a workload, run in a child process of its
// own: the simulated work, the invariant checks made on it, and the
// numbers the parent aggregates.
type rep struct {
	seed   int64
	traced bool
	spans  tracer
	// rows is the rendered simulated output; its sha256 is the
	// sim_digest that runs of the same code must reproduce.
	rows      strings.Builder
	attempted uint64
	errs      []string
	// tally sums the layers' work counters under "<layer>.<counter>".
	tally map[string]uint64
	// events counts sim.Engine events on the clusters the benchmark
	// drives itself (the study runners keep their engines private), and
	// eventWall the wall time of the units that fired them.
	events    uint64
	eventWall time.Duration
	// sendNs/sends time the benchmark's own gm.Host.Send calls.
	sendNs, sends uint64
	// probeTopo is the topology the traced run's routing probe builds
	// and looks up a table on.
	probeTopo *topology.Topology
	fidelity  map[string]float64
	units     []unitTime
}

// unitTime is the host cost of one unit of a repetition's run: an arm,
// a cell or a study call. Units are short, so that the parent's
// per-unit medians over many of them ride out bursts of contention
// from other tenants of the machine, which would swamp one long timing.
type unitTime struct {
	Name  string  `json:"name"`
	WallS float64 `json:"wall_s"`
	// CPUS is user+sys time of every thread, the collector's included.
	CPUS float64 `json:"cpu_s"`
}

// repResult is what a child reports to the parent on its stdout.
type repResult struct {
	SetupS    float64            `json:"setup_s"`
	Units     []unitTime         `json:"units"`
	Attempted uint64             `json:"attempted"`
	Errors    []string           `json:"errors,omitempty"`
	Digest    string             `json:"sim_digest"`
	Rows      string             `json:"rows"`
	Counts    map[string]float64 `json:"counts,omitempty"`
	Fidelity  map[string]float64 `json:"fidelity,omitempty"`
	// PeakRSSMB is filled by the parent from the child's rusage.
	PeakRSSMB float64 `json:"-"`
}

func (r *rep) row(format string, args ...any) { fmt.Fprintf(&r.rows, format+"\n", args...) }

// unit runs one named unit of the run inside a span and records its
// wall and CPU time.
func (r *rep) unit(name string, fn func() error) error {
	cpu0, ev0 := processCPU(), r.events
	r.spans.begin("cell " + name)
	err := fn()
	wall := r.spans.end()
	if r.events > ev0 {
		r.eventWall += wall
	}
	r.units = append(r.units, unitTime{Name: name, WallS: wall.Seconds(), CPUS: processCPU() - cpu0})
	return err
}

// processCPU is the process's user+sys CPU time so far, in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return seconds(ru.Utime) + seconds(ru.Stime)
}

// check records an invariant violation; any one fails the repetition.
func (r *rep) check(ok bool, format string, args ...any) {
	if !ok {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *rep) addMCP(s mcp.Stats) {
	r.tally["mcp.itb_forwarded"] += s.ITBForwarded
	r.tally["mcp.itb_pending_hits"] += s.ITBPendingHits
	r.tally["mcp.pool_drops"] += s.PoolDrops
}

func (r *rep) addGM(s gm.Stats) {
	r.tally["gm.acks_sent"] += s.AcksSent
	r.tally["gm.retransmits"] += s.Retransmits
	r.tally["gm.messages_failed"] += s.MessagesFailed
}

func (r *rep) addFabric(s fabric.Counters) {
	r.tally["fabric.injected"] += s.Injected
	r.tally["fabric.delivered"] += s.Delivered
	r.tally["fabric.dropped"] += s.Dropped
	r.tally["fabric.bytes_moved"] += s.BytesMoved
}

// tallyLayers are the registry name segments counters are summed
// under: study metrics are named "<cell prefix>.<layer>[.host<N>].<counter>".
var tallyLayers = map[string]bool{"fabric": true, "mcp": true, "gm": true, "recovery": true}

// addRegistry sums a study's metrics registry by layer and counter
// name, across cells, campaigns and hosts.
func (r *rep) addRegistry(reg *metrics.Registry) {
	for name, v := range reg.Snapshot().Counters {
		parts := strings.Split(name, ".")
		for _, p := range parts[:len(parts)-1] {
			if tallyLayers[p] {
				r.tally[p+"."+parts[len(parts)-1]] += v
				break
			}
		}
	}
}

// runChild executes one repetition of the named workload and prints
// its repResult as one JSON line. A traced repetition also writes a CPU
// profile and a spans file.
func runChild(name string, seed int64, profilePath, spansPath string) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	runner.SetWorkers(1)
	r := &rep{seed: seed, traced: profilePath != "", tally: map[string]uint64{}}
	r.spans.t0 = time.Now()

	var profile *os.File
	if r.traced {
		var err error
		if profile, err = os.Create(profilePath); err != nil {
			return err
		}
		defer profile.Close()
		if err := pprof.StartCPUProfile(profile); err != nil {
			return err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	pool0 := packet.PoolOutstanding()

	r.spans.begin("rep " + name)
	r.spans.begin("setup")
	run, err := w.setup(r)
	setup := r.spans.end()
	if err == nil {
		err = r.spans.timed("run", run)
	}
	r.spans.end()
	if err != nil {
		r.errs = append(r.errs, err.Error())
	}
	runtime.ReadMemStats(&ms1)

	var counts map[string]float64
	if r.traced {
		pprof.StopCPUProfile()
		if err := profile.Close(); err != nil {
			return err
		}
		counts = r.layerCounts(ms0, ms1, packet.PoolOutstanding()-pool0)
		if err := r.spans.write(spansPath); err != nil {
			return err
		}
	}
	rows := r.rows.String()
	sum := sha256.Sum256([]byte(rows))
	return json.NewEncoder(os.Stdout).Encode(repResult{
		SetupS:    setup.Seconds(),
		Units:     r.units,
		Attempted: r.attempted,
		Errors:    r.errs,
		Digest:    hex.EncodeToString(sum[:]),
		Rows:      rows,
		Counts:    counts,
		Fidelity:  r.fidelity,
	})
}

// layerCounts turns the repetition's tallies, spans and probes into
// the per-layer numbers the parent reports (all but the profile's).
func (r *rep) layerCounts(ms0, ms1 runtime.MemStats, poolLeft int64) map[string]float64 {
	c := map[string]float64{
		"sim.events":              float64(r.events),
		"workload.flows":          float64(r.attempted),
		"packet.pool_outstanding": float64(poolLeft),
		"go.allocs":               float64(ms1.Mallocs - ms0.Mallocs),
		"go.gc_cycles":            float64(ms1.NumGC - ms0.NumGC),
		"topology.build_s":        r.spans.total("topology.build").Seconds(),
		"core.cluster_s":          r.spans.total("core.cluster").Seconds(),
		"workload.plan_s":         r.spans.total("workload.plan").Seconds(),
	}
	for _, k := range []string{
		"mcp.itb_forwarded", "mcp.itb_pending_hits", "mcp.pool_drops",
		"fabric.injected", "fabric.delivered", "fabric.dropped", "fabric.bytes_moved",
		"gm.acks_sent", "gm.retransmits", "gm.messages_failed",
	} {
		c[k] = float64(r.tally[k])
	}
	for metric, counter := range map[string]string{
		"recovery.probes":      "recovery.probes_sent",
		"recovery.pingreqs":    "recovery.verify_probes",
		"recovery.refutations": "recovery.refutations",
		"recovery.epochs":      "recovery.epochs_published",
	} {
		c[metric] = float64(r.tally[counter])
	}
	// Ratios over work that did not happen read 0.
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	fwd, pending := float64(r.tally["mcp.itb_forwarded"]), float64(r.tally["mcp.itb_pending_hits"])
	c["mcp.itb_cutthrough_ratio"] = ratio(fwd-pending, fwd)
	c["gm.send_ns"] = ratio(float64(r.sendNs), float64(r.sends))
	c["sim.ns_per_event"] = ratio(float64(r.eventWall.Nanoseconds()), float64(r.events))
	var err error
	if c["routing.build_s"], c["routing.lookup_ns"], err = routingProbe(r.probeTopo); err != nil {
		r.errs = append(r.errs, err.Error())
	}
	return c
}

// routingProbe times a fresh updown-itb table build on the workload's
// topology and then one Lookup of every ordered host pair on it. It
// runs after the profile stops, so it is charged to no layer.
func routingProbe(t *topology.Topology) (buildS, lookupNs float64, err error) {
	if t == nil {
		return 0, 0, nil
	}
	eng, _ := routing.EngineByName("updown-itb")
	start := time.Now()
	tbl, err := eng.BuildTable(t, nil)
	buildS = time.Since(start).Seconds()
	if err != nil {
		return 0, 0, fmt.Errorf("routing probe: %w", err)
	}
	hosts := t.Hosts()
	start = time.Now()
	n := 0
	for _, s := range hosts {
		for _, d := range hosts {
			if s != d {
				tbl.Lookup(s, d)
				n++
			}
		}
	}
	return buildS, float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// span is one timed call into a layer, as written to the spans file.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records nested spans in memory; the spans file is written
// once the repetition ends.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func (t *tracer) begin(name string) {
	parent := 0
	if len(t.open) > 0 {
		parent = t.spans[t.open[len(t.open)-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	s := &t.spans[t.open[len(t.open)-1]]
	t.open = t.open[:len(t.open)-1]
	s.End = time.Since(t.t0).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, fn func() error) error {
	t.begin(name)
	defer t.end()
	return fn()
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
