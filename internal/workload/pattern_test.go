package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

// patternHosts returns the hosts of a small irregular network.
func patternHosts(t *testing.T) []topology.NodeID {
	t.Helper()
	topo, err := topology.Generate(topology.DefaultGenConfig(4, 9))
	if err != nil {
		t.Fatal(err)
	}
	return topo.Hosts()
}

func dests(t *testing.T, hosts []topology.NodeID, p Pattern, hotFraction float64, seed int64) *Destinations {
	t.Helper()
	d, err := NewDestinations(hosts, p, hotFraction, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestUniformNeverSelf(t *testing.T) {
	hosts := patternHosts(t)
	d := dests(t, hosts, Uniform, 0, 1)
	for i, src := range hosts {
		for n := 0; n < 200; n++ {
			if d.Next(i) == src {
				t.Fatalf("self-message from %d", src)
			}
		}
	}
}

func TestUniformCoversAllDestinations(t *testing.T) {
	hosts := patternHosts(t)
	d := dests(t, hosts, Uniform, 0, 2)
	seen := map[topology.NodeID]bool{}
	for n := 0; n < 2000; n++ {
		seen[d.Next(0)] = true
	}
	if len(seen) != len(hosts)-1 {
		t.Errorf("covered %d destinations, want %d", len(seen), len(hosts)-1)
	}
}

func TestHotSpotBias(t *testing.T) {
	hosts := patternHosts(t)
	d := dests(t, hosts, HotSpot, 0.5, 3)
	hot := hosts[d.hot]
	counts := map[topology.NodeID]int{}
	total := 0
	for i, src := range hosts {
		if src == hot {
			continue
		}
		for n := 0; n < 500; n++ {
			counts[d.Next(i)]++
			total++
		}
	}
	frac := float64(counts[hot]) / float64(total)
	// 50% direct + uniform share; must be well above uniform (1/15).
	if frac < 0.4 {
		t.Errorf("hot fraction = %.3f, want >= 0.4", frac)
	}
}

func TestBitReversalDeterministicAndNotSelf(t *testing.T) {
	hosts := patternHosts(t)
	d := dests(t, hosts, BitReversal, 0, 4)
	for i, src := range hosts {
		if d.Next(i) == src {
			t.Fatalf("bit-reversal self-message from %d", src)
		}
	}
}

func TestPermutationIsFixedDerangement(t *testing.T) {
	hosts := patternHosts(t)
	d := dests(t, hosts, Permutation, 0, 5)
	dsts := map[topology.NodeID]topology.NodeID{}
	for i, src := range hosts {
		dst := d.Next(i)
		if dst == src {
			t.Fatalf("fixed point at %d", src)
		}
		dsts[src] = dst
	}
	// Stable across draws.
	for i, src := range hosts {
		if d.Next(i) != dsts[src] {
			t.Fatalf("permutation not fixed for %d", src)
		}
	}
	// It is a bijection.
	seen := map[topology.NodeID]bool{}
	for _, dst := range dsts {
		if seen[dst] {
			t.Fatal("permutation not injective")
		}
		seen[dst] = true
	}
}

// HotFraction must lie in [0,1]; anything else — including NaN, which
// defeats naive range checks — is a configuration error, never a
// silent clamp. Zero is legal: the hotspot decays to uniform.
func TestHotFractionValidation(t *testing.T) {
	hosts := patternHosts(t)
	cases := []struct {
		name string
		frac float64
		ok   bool
	}{
		{"zero-degenerate-uniform", 0, true},
		{"half", 0.5, true},
		{"all-hot", 1, true},
		{"negative", -0.1, false},
		{"above-one", 1.5, false},
		{"nan", math.NaN(), false},
		{"pos-inf", math.Inf(1), false},
		{"neg-inf", math.Inf(-1), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDestinations(hosts, HotSpot, tc.frac, rand.New(rand.NewSource(9)))
			if tc.ok && err != nil {
				t.Fatalf("HotFraction=%v rejected: %v", tc.frac, err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatalf("HotFraction=%v accepted", tc.frac)
				}
				return
			}
			// An accepted fraction must still generate legal traffic.
			for n := 0; n < 50; n++ {
				if d.Next(0) == hosts[0] {
					t.Fatal("self-message")
				}
			}
			// Uniform patterns never consult HotFraction, so even a bad
			// value there is not an error.
			if _, err := NewDestinations(hosts, Uniform, tc.frac, rand.New(rand.NewSource(0))); err != nil {
				t.Errorf("uniform with HotFraction=%v rejected: %v", tc.frac, err)
			}
		})
	}
}

func TestDestinationsErrors(t *testing.T) {
	hosts := patternHosts(t)
	if _, err := NewDestinations(hosts[:1], Uniform, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("single host accepted")
	}
	if _, err := NewDestinations(hosts, Pattern(9), 0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("unknown pattern accepted")
	}
}

func TestPatternString(t *testing.T) {
	for p, want := range map[Pattern]string{
		Uniform: "uniform", HotSpot: "hotspot", BitReversal: "bit-reversal", Permutation: "permutation",
		Pattern(9): "Pattern(9)",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", int(p), p.String())
		}
	}
}

// Property: streams are reproducible for any seed.
func TestDeterminismProperty(t *testing.T) {
	hosts := patternHosts(t)
	f := func(seed int64) bool {
		mk := func() []topology.NodeID {
			d, err := NewDestinations(hosts, Uniform, 0, rand.New(rand.NewSource(seed)))
			if err != nil {
				return nil
			}
			var out []topology.NodeID
			for i := range hosts {
				for n := 0; n < 10; n++ {
					out = append(out, d.Next(i))
				}
			}
			return out
		}
		a, b := mk(), mk()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
