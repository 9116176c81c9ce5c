package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

func TestAttributeChargesInnermostReproFrame(t *testing.T) {
	b, err := os.ReadFile("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := attribute(string(b))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		goBucket:    0.01, // no repro or benchmark frame: the collector
		"mcp":       0.03, // allocation under the firmware's closure
		"sim":       1,    // inline frame suffix stripped
		"workload":  0.05, // internal/traffic is charged to workload
		benchBucket: 0.02, // the benchmark's own callback
		"gm":        0.04, // internal/gmip is charged to gm
		"core":      0.05, // an unmapped repro package falls to core
	}
	if len(got) != len(want) {
		t.Fatalf("buckets %v, want %v", got, want)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v s, want %v s", k, got[k], v)
		}
	}
}

func TestAttributeRejectsMisreadListing(t *testing.T) {
	b, err := os.ReadFile("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	for name, listing := range map[string]string{
		"total not covered": strings.Replace(string(b), "Total samples = 1.20s", "Total samples = 2s", 1),
		"bad sample value":  strings.Replace(string(b), "      30ms   runtime.nextFreeFast", "      30xx   runtime.nextFreeFast", 1),
	} {
		if _, err := attribute(listing); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}
