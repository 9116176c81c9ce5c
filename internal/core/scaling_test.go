package core

import (
	"strings"
	"testing"

	"repro/internal/units"
)

func TestScalingRatioGrows(t *testing.T) {
	res, err := RunScaling([]int{8, 16}, 5, 500*units.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Ratio <= 1.0 {
			t.Errorf("%d switches: ratio %.2f, ITB should win", row.Switches, row.Ratio)
		}
		if row.IHops > row.UDHops {
			t.Errorf("%d switches: ITB hops %.2f above UD %.2f", row.Switches, row.IHops, row.UDHops)
		}
	}
	if res.Rows[1].Ratio <= res.Rows[0].Ratio {
		t.Errorf("ratio did not grow with size: %.2f -> %.2f",
			res.Rows[0].Ratio, res.Rows[1].Ratio)
	}
	var sb strings.Builder
	res.WriteTable(&sb)
	if !strings.Contains(sb.String(), "network size") {
		t.Error("table header")
	}
}

func TestChunkAblation(t *testing.T) {
	res, err := RunChunkAblation(8192, []int{0, 32, 256, 1024}, 5)
	if err != nil {
		t.Fatal(err)
	}
	byChunk := map[int]units.Time{}
	for _, row := range res.Rows {
		byChunk[row.ChunkBytes] = row.Latency
	}
	// Chunking beats whole staging for large messages.
	if byChunk[1024] >= byChunk[0] {
		t.Errorf("1KB chunks (%v) not faster than whole staging (%v)", byChunk[1024], byChunk[0])
	}
	// Tiny chunks pay chaining overhead.
	if byChunk[32] <= byChunk[256] {
		t.Errorf("32B chunks (%v) not slower than 256B (%v)", byChunk[32], byChunk[256])
	}
	var sb strings.Builder
	res.WriteTable(&sb)
	if !strings.Contains(sb.String(), "whole") {
		t.Error("table missing whole-staging row")
	}
}
