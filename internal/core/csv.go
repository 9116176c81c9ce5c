package core

import (
	"encoding/csv"
	"fmt"
	"io"
)

// CSV emitters: each figure-reproducing experiment can dump its data
// series for external plotting, so the paper's figures can be redrawn
// from `itbsim -csv` output.

// WriteCSV emits size, original, modified, overhead (nanoseconds).
func (r Fig7Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"size_bytes", "original_ns", "modified_ns", "overhead_ns", "relative_pct"}); err != nil {
		return err
	}
	for _, row := range r.Rows {
		rec := []string{
			fmt.Sprintf("%d", row.Size),
			fmt.Sprintf("%.3f", row.Original.Nanoseconds()),
			fmt.Sprintf("%.3f", row.Modified.Nanoseconds()),
			fmt.Sprintf("%.3f", row.Overhead.Nanoseconds()),
			fmt.Sprintf("%.4f", row.RelativePct),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits size, UD, UD-ITB, per-ITB cost (nanoseconds).
func (r Fig8Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"size_bytes", "ud_ns", "ud_itb_ns", "per_itb_ns", "relative_pct"}); err != nil {
		return err
	}
	for _, row := range r.Rows {
		rec := []string{
			fmt.Sprintf("%d", row.Size),
			fmt.Sprintf("%.3f", row.UD.Nanoseconds()),
			fmt.Sprintf("%.3f", row.UDITB.Nanoseconds()),
			fmt.Sprintf("%.3f", row.Overhead.Nanoseconds()),
			fmt.Sprintf("%.4f", row.RelativePct),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits ITB count vs latency.
func (r ITBCountResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"itbs", "latency_us", "per_itb_ns"}); err != nil {
		return err
	}
	for _, row := range r.Rows {
		rec := []string{
			fmt.Sprintf("%d", row.ITBs),
			fmt.Sprintf("%.3f", row.Latency.Microseconds()),
			fmt.Sprintf("%.3f", row.ExtraPerITB.Nanoseconds()),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
