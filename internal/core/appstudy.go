package core

import (
	"fmt"
	"io"

	"repro/internal/mcp"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/units"
)

// AppStudyConfig drives the distributed-application experiment the
// paper leaves as future work: "analyzing the impact of using ITBs in
// the execution time of distributed applications". The application is
// a bulk-synchronous exchange: in each superstep every host sends a
// message to a stride partner and waits for its own incoming message
// before advancing — the communication skeleton of stencil and
// transpose kernels.
type AppStudyConfig struct {
	Switches   int
	Seed       int64
	Supersteps int
	// MsgBytes is the payload exchanged per host per superstep.
	MsgBytes int
}

// DefaultAppStudyConfig exercises a 16-switch cluster.
func DefaultAppStudyConfig() AppStudyConfig {
	return AppStudyConfig{Switches: 16, Seed: 9, Supersteps: 12, MsgBytes: 4096}
}

// AppStudyRow is one algorithm's outcome.
type AppStudyRow struct {
	Algorithm  *routing.UpDownEngine
	Completion units.Time
	// PerStep is the mean superstep time.
	PerStep units.Time
}

// AppStudyResult compares completion times.
type AppStudyResult struct {
	Config AppStudyConfig
	Rows   []AppStudyRow
	// Speedup is UD completion over ITB completion.
	Speedup float64
}

// RunAppStudy executes the application under both routings.
func RunAppStudy(cfg AppStudyConfig) (AppStudyResult, error) {
	if cfg.Supersteps < 1 || cfg.MsgBytes < 1 {
		return AppStudyResult{}, fmt.Errorf("core: app study needs positive supersteps and message size")
	}
	res := AppStudyResult{Config: cfg}
	algs := []*routing.UpDownEngine{routing.UpDownRouting, routing.ITBRouting}
	times, err := runCells(algs, runObs{}, nil, func(alg *routing.UpDownEngine, _ runObs) (units.Time, error) {
		return runApp(cfg, alg)
	})
	if err != nil {
		return res, err
	}
	for i, alg := range algs {
		res.Rows = append(res.Rows, AppStudyRow{
			Algorithm:  alg,
			Completion: times[i],
			PerStep:    times[i] / units.Time(cfg.Supersteps),
		})
	}
	if res.Rows[1].Completion > 0 {
		res.Speedup = float64(res.Rows[0].Completion) / float64(res.Rows[1].Completion)
	}
	return res, nil
}

func runApp(cfg AppStudyConfig, alg *routing.UpDownEngine) (units.Time, error) {
	topo, err := topology.Generate(topology.DefaultGenConfig(cfg.Switches, cfg.Seed))
	if err != nil {
		return 0, err
	}
	ccfg := DefaultConfig(topo, alg, mcp.ITB)
	// Heavy synchronous bursts need the proposed buffer pool; GM's
	// reliability stays on, so the application cannot lose messages.
	ccfg.MCP.BufferPool = true
	ccfg.MCP.RecvBuffers = 64
	cl, err := NewCluster(ccfg)
	if err != nil {
		return 0, err
	}
	hosts := topo.Hosts()
	n := len(hosts)
	rank := make(map[topology.NodeID]int, n)
	for i, h := range hosts {
		rank[h] = i
	}
	// step[i]: the superstep host i is currently in; got[i]: whether
	// its incoming message for this step has arrived early.
	step := make([]int, n)
	early := make([]map[int]bool, n)
	for i := range early {
		early[i] = map[int]bool{}
	}
	finished := 0
	var doneAt units.Time

	var advance func(i int)
	sendStep := func(i, s int) {
		// Stride grows with the step, cycling through distinct
		// partners: the pattern sweeps the whole network.
		d := s%(n-1) + 1
		dst := hosts[(i+d)%n]
		payload := make([]byte, cfg.MsgBytes)
		payload[0] = byte(s)
		if err := cl.Host(hosts[i]).Send(dst, payload); err != nil {
			panic(err)
		}
	}
	advance = func(i int) {
		for early[i][step[i]] {
			delete(early[i], step[i])
			step[i]++
			if step[i] == cfg.Supersteps {
				finished++
				if finished == n {
					doneAt = cl.Eng.Now()
				}
				return
			}
			sendStep(i, step[i])
		}
	}
	for i, h := range hosts {
		i := i
		cl.Host(h).OnMessage = func(_ topology.NodeID, p []byte, _ units.Time) {
			early[i][int(p[0])] = true
			advance(i)
		}
	}
	for i := range hosts {
		sendStep(i, 0)
	}
	cl.Eng.Run()
	if doneAt == 0 {
		return 0, fmt.Errorf("core: application did not complete (%d/%d hosts finished)", finished, n)
	}
	return doneAt, nil
}

// WriteTable renders the study.
func (r AppStudyResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Distributed application study: %d-superstep stride exchange, %dB messages, %d switches\n",
		r.Config.Supersteps, r.Config.MsgBytes, r.Config.Switches)
	fmt.Fprintf(w, "%-18s %14s %14s\n", "routing", "completion", "per step")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-18s %14s %14s\n", row.Algorithm.String(), row.Completion, row.PerStep)
	}
	fmt.Fprintf(w, "speedup from ITBs: %.2fx\n", r.Speedup)
}
