package core

import (
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/topology"
)

// EngineStudyConfig parameterises the engine-comparison study: every
// registered routing engine computes and certifies its all-pairs
// switch paths on every (topology class, size) cell (CertifyEngine),
// and the study reports the route-quality and congestion-structure
// numbers that predict saturation behaviour — in-transit buffer
// counts, hotspot pressure, and the root bottleneck — across engines
// and scales.
type EngineStudyConfig struct {
	// Classes are the topology generator families; default irregular,
	// fattree, dragonfly.
	Classes []string
	// Sizes are nominal host counts per cell; each generator rounds to
	// its nearest valid configuration. Default 64, 256, 1024.
	Sizes []int
	// Engines filters the engines by name; default all registered.
	Engines []string
	// Seed feeds the irregular generator (the regular generators are
	// fully determined by size).
	Seed int64
	// TopoText, when non-empty, replaces the generated topologies with
	// one serialized topology (the -topofile path), labelled TopoLabel;
	// Classes and Sizes are ignored.
	TopoText  string
	TopoLabel string
	// Metrics, when non-nil, receives each cell's counters under the
	// "<class>.<hosts>.<engine>." prefix, merged in cell order.
	Metrics *metrics.Registry
}

// DefaultEngineStudyConfig returns the standard study grid.
func DefaultEngineStudyConfig(seed int64) EngineStudyConfig {
	return EngineStudyConfig{
		Classes: []string{"irregular", "fattree", "dragonfly"},
		Sizes:   []int{64, 256, 1024},
		Engines: routing.EngineNames(),
		Seed:    seed,
	}
}

// EngineRow is one (class, size, engine) cell.
type EngineRow struct {
	Class  string
	Engine string
	Hosts  int
	routing.EngineAnalysis
}

// EngineStudyResult is the engine-comparison study output.
type EngineStudyResult struct {
	Rows []EngineRow
}

// engineStudyTopology builds the cell topology for a class at a
// nominal host count.
func engineStudyTopology(class string, hosts int, seed int64) (*topology.Topology, error) {
	switch class {
	case "irregular":
		return topology.Generate(topology.DefaultGenConfig(hosts/4, seed))
	case "fattree":
		return topology.FatTree(topology.DefaultFatTreeConfig(hosts))
	case "dragonfly":
		return topology.Dragonfly(topology.DefaultDragonflyConfig(hosts))
	default:
		return nil, fmt.Errorf("core: unknown topology class %q (valid: irregular fattree dragonfly)", class)
	}
}

// RunEngineStudy runs the grid. Every cell is independent — it builds
// its own topology copy (topologies are not goroutine-safe) — so all
// cells dispatch through the parallel runner at once; rows assemble
// from the ordered results and metrics merge in cell order, keeping
// the output byte-identical at any worker count.
func RunEngineStudy(cfg EngineStudyConfig) (EngineStudyResult, error) {
	var res EngineStudyResult
	if len(cfg.Engines) == 0 {
		cfg.Engines = routing.EngineNames()
	}
	for _, name := range cfg.Engines {
		if _, ok := routing.EngineByName(name); !ok {
			return res, fmt.Errorf("core: unknown routing engine %q", name)
		}
	}
	type cell struct {
		class  string
		hosts  int // nominal; 0 for -topofile cells
		engine string
	}
	var specs []cell
	if cfg.TopoText != "" {
		label := cfg.TopoLabel
		if label == "" {
			label = "topofile"
		}
		for _, e := range cfg.Engines {
			specs = append(specs, cell{label, 0, e})
		}
	} else {
		for _, class := range cfg.Classes {
			for _, size := range cfg.Sizes {
				for _, e := range cfg.Engines {
					specs = append(specs, cell{class, size, e})
				}
			}
		}
	}
	var err error
	res.Rows, err = runCells(specs, runObs{reg: cfg.Metrics}, func(i int, r EngineRow) string {
		return fmt.Sprintf("%s.%d.%s.", r.Class, r.Hosts, r.Engine)
	}, func(c cell, obs runObs) (EngineRow, error) {
		var topo *topology.Topology
		var err error
		if cfg.TopoText != "" {
			topo, err = readTopo([]byte(cfg.TopoText))
		} else {
			topo, err = engineStudyTopology(c.class, c.hosts, cfg.Seed)
		}
		if err != nil {
			return EngineRow{}, err
		}
		eng, _ := routing.EngineByName(c.engine)
		// The study certifies what it reports: every cell's paths are
		// checked legal and deadlock free as they are counted.
		an, err := routing.CertifyEngine(eng, topo)
		if err != nil {
			return EngineRow{}, err
		}
		if obs.reg != nil {
			obs.reg.Counter("pairs").Add(uint64(an.Pairs))
			obs.reg.Counter("itbs.total").Add(uint64(an.TotalITBs))
			obs.reg.Counter("table.bytes").Add(uint64(an.TableBytes))
			obs.reg.Gauge("channel.load.max").Set(float64(an.MaxChannelLoad))
			obs.reg.Gauge("hotspot.ratio").Set(an.HotspotRatio)
			obs.reg.Gauge("minimal.fraction").Set(an.MinimalFraction)
		}
		return EngineRow{Class: c.class, Engine: c.engine, Hosts: len(topo.Hosts()), EngineAnalysis: an}, nil
	})
	return res, err
}

// WriteTable renders the study grouped by topology cell. Relief is
// mean/max channel load — the fraction of the fabric's bisection an
// all-pairs workload can actually use before the hottest channel
// saturates (1.0 = perfectly spread).
func (r EngineStudyResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Routing-engine comparison (all-pairs switch routes, uniform weight)\n")
	fmt.Fprintf(w, "%-10s %6s %6s  %-15s %8s %8s %8s %8s %8s %8s %10s\n",
		"class", "sw", "hosts", "engine", "avgHops", "avgITBs", "minFrac", "rootFrac", "maxLoad", "relief", "bytes")
	prev := ""
	for _, row := range r.Rows {
		key := fmt.Sprintf("%s/%d", row.Class, row.Hosts)
		if prev != "" && key != prev {
			fmt.Fprintln(w)
		}
		prev = key
		relief := 0.0
		if row.MaxChannelLoad > 0 {
			relief = row.MeanChannelLoad / float64(row.MaxChannelLoad)
		}
		fmt.Fprintf(w, "%-10s %6d %6d  %-15s %8.2f %8.3f %8.3f %8.3f %8d %8.3f %10d\n",
			row.Class, row.Switches, row.Hosts, row.Engine,
			row.AvgHops, row.AvgITBs, row.MinimalFraction, row.RootFraction,
			row.MaxChannelLoad, relief, row.TableBytes)
	}
	fmt.Fprintf(w, "\nupdown-itb buys minimal paths with in-transit buffers; layered-ksp spreads\n")
	fmt.Fprintf(w, "equal-length paths over tie-break layers; minimal-escape trades path length\n")
	fmt.Fprintf(w, "for zero in-transit cost under a DFS orientation.\n")
}

// WriteCSV emits the rows as one CSV series.
func (r EngineStudyResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "class,switches,hosts,engine,avg_hops,max_hops,avg_itbs,total_itbs,minimal_fraction,root_fraction,max_channel_load,mean_channel_load,link_load_cv,table_bytes\n"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%s,%.4f,%d,%.4f,%d,%.4f,%.4f,%d,%.4f,%.4f,%d\n",
			row.Class, row.Switches, row.Hosts, row.Engine,
			row.AvgHops, row.MaxHops, row.AvgITBs, row.TotalITBs,
			row.MinimalFraction, row.RootFraction,
			row.MaxChannelLoad, row.MeanChannelLoad, row.LinkLoadCV, row.TableBytes); err != nil {
			return err
		}
	}
	return nil
}
