package workload

import (
	"encoding/binary"
	"fmt"

	"repro/internal/gm"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// CollectiveConfig parameterises a ring allreduce: one accumulating
// token circulates around the host ring twice — once to sum, once to
// broadcast — so the critical path is 2(n-1) chained hops.
type CollectiveConfig struct {
	// VectorLen is the reduced vector length in 32-bit words.
	VectorLen int
	// Port is the GM port the collective claims on every host.
	Port uint8
	// SendTokens and RecvTokens provision each port.
	SendTokens, RecvTokens int
	// OnHop, when non-nil, observes every message of the collective:
	// the one-hop latency (receive time minus send stamp) and the
	// receive time. The load study samples these as flow-completion
	// times.
	OnHop func(latency, at units.Time)
}

// DefaultCollectiveConfig returns the ring collective the original
// example ran: a 1024-word vector on GM port 1.
func DefaultCollectiveConfig() CollectiveConfig {
	return CollectiveConfig{VectorLen: 1024, Port: 1, SendTokens: 4, RecvTokens: 8}
}

// Collective is a running (or finished) allreduce.
type Collective struct {
	doneAt   units.Time
	checksum uint64
	hops     int
}

// Done reports completion.
func (c *Collective) Done() bool { return c.doneAt != 0 }

// DoneAt returns the completion time (0 while running).
func (c *Collective) DoneAt() units.Time { return c.doneAt }

// Checksum returns the sum of the reduced vector's words, the
// correctness witness of the collective.
func (c *Collective) Checksum() uint64 { return c.checksum }

// Hops returns how many collective messages have been delivered.
func (c *Collective) Hops() int { return c.hops }

// ExpectedChecksum is the closed form of the witness: every rank r
// contributes word j = r+j, so the reduced vector sums to
// n*L(L-1)/2 + L*n(n-1)/2.
func ExpectedChecksum(n, vectorLen int) uint64 {
	nn, ll := uint64(n), uint64(vectorLen)
	return nn*ll*(ll-1)/2 + ll*nn*(nn-1)/2
}

// localWord is rank r's contribution to word j.
func localWord(r, j int) uint32 { return uint32(r + j) }

// Collective wire framing: [hop: 2 bytes LE][send stamp: 8 bytes
// LE][vector words: 4 bytes BE each].
const collectiveHeader = 10

func encodeCollective(tag uint16, now units.Time, vec []uint32) []byte {
	buf := make([]byte, collectiveHeader+4*len(vec))
	binary.LittleEndian.PutUint16(buf[0:], tag)
	binary.LittleEndian.PutUint64(buf[2:], uint64(now))
	for j, x := range vec {
		binary.BigEndian.PutUint32(buf[collectiveHeader+4*j:], x)
	}
	return buf
}

func decodeCollective(p []byte) (tag uint16, stamp units.Time, vec []uint32) {
	tag = binary.LittleEndian.Uint16(p[0:])
	stamp = units.Time(binary.LittleEndian.Uint64(p[2:]))
	vec = make([]uint32, (len(p)-collectiveHeader)/4)
	for j := range vec {
		vec[j] = binary.BigEndian.Uint32(p[collectiveHeader+4*j:])
	}
	return tag, stamp, vec
}

// StartAllreduce opens the collective's port on every host, wires the
// ring's receive handlers and injects the token. The caller runs the
// engine; the returned Collective reports completion, checksum and hop
// count. hostOf resolves a topology host to its GM endpoint (core's
// Cluster.Host, in the drivers).
func StartAllreduce(eng *sim.Engine, hosts []topology.NodeID, hostOf func(topology.NodeID) *gm.Host, cfg CollectiveConfig) (*Collective, error) {
	n := len(hosts)
	if n < 2 {
		return nil, fmt.Errorf("workload: allreduce needs at least 2 hosts, have %d", n)
	}
	if cfg.VectorLen < 1 {
		return nil, fmt.Errorf("workload: allreduce needs a positive vector length, got %d", cfg.VectorLen)
	}
	if 2*n-2 > 0xFFFF {
		return nil, fmt.Errorf("workload: ring allreduce hop counter overflows at %d hosts", n)
	}
	ports := make([]*gm.Port, n)
	for i, h := range hosts {
		p, err := hostOf(h).OpenPort(cfg.Port, cfg.SendTokens)
		if err != nil {
			return nil, err
		}
		p.ProvideReceiveTokens(cfg.RecvTokens)
		ports[i] = p
	}
	c := &Collective{}
	observe := func(stamp, t units.Time) {
		c.hops++
		if cfg.OnHop != nil {
			cfg.OnHop(t-stamp, t)
		}
	}
	c.startRing(eng, hosts, ports, cfg, observe)
	return c, nil
}

// startRing runs the example's original algorithm: the token carries
// a hop counter; ranks accumulate for the first n-1 hops and relay
// the finished sum for the next n-1.
func (c *Collective) startRing(eng *sim.Engine, hosts []topology.NodeID, ports []*gm.Port, cfg CollectiveConfig, observe func(stamp, t units.Time)) {
	n := len(hosts)
	for i := range hosts {
		i := i
		ports[i].OnReceive = func(_ topology.NodeID, _ uint8, payload []byte, t units.Time) {
			hop16, stamp, vec := decodeCollective(payload)
			observe(stamp, t)
			hop := int(hop16)
			if hop < n-1 {
				// Accumulation pass: fold in our contribution.
				for j := range vec {
					vec[j] += localWord(i, j)
				}
			}
			hop++
			if hop == 2*n-2 {
				// Accumulated everywhere and re-broadcast around the
				// ring: done.
				c.doneAt = t
				for _, x := range vec {
					c.checksum += uint64(x)
				}
				return
			}
			out := encodeCollective(uint16(hop), eng.Now(), vec)
			if err := ports[i].Send(hosts[(i+1)%n], cfg.Port, out); err != nil {
				panic(err)
			}
		}
	}
	// Rank 0 starts the token with its own vector, hop counter 0.
	vec := make([]uint32, cfg.VectorLen)
	for j := range vec {
		vec[j] = localWord(0, j)
	}
	if err := ports[0].Send(hosts[1], cfg.Port, encodeCollective(0, eng.Now(), vec)); err != nil {
		panic(err)
	}
}
