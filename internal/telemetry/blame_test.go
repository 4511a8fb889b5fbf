package telemetry

import (
	"reflect"
	"testing"
)

// TestBlameTables pins the blame renderer: runs without a critpath
// section are skipped, each profiled run yields its blame table, and a
// p999 exemplar adds its segment table right after it.
func TestBlameTables(t *testing.T) {
	runs := []*RunRecord{
		{Experiment: "fig7", Design: "CPU-only", Seq: 0},
		{Experiment: "fig7", Design: "SmartDS-1", Protocol: "primary", Seq: 0,
			Critpath: &CritpathSummary{
				Requests: 2,
				Stages: []CritpathStage{
					{Stage: "mt/replicate.wait", Wait: true, MeanFrac: 0.75, P99Frac: 0.8, P999Frac: 0.805, MeanSec: 30e-6},
					{Stage: "net/request", MeanFrac: 0.25, P99Frac: 0.2, P999Frac: 0.195, MeanSec: 10e-6},
				},
				P999: &CritpathExemplar{TraceID: FormatTraceID(7), E2E: 40e-6, Segments: []CritpathSegment{
					{Stage: "net/request", Dur: 10e-6, Frac: 0.25},
					{Stage: "mt/replicate.wait", Wait: true, Dur: 30e-6, Frac: 0.75},
				}},
			}},
		{Experiment: "fig7", Design: "SmartDS-1", Protocol: "chain", Seq: 1,
			Critpath: &CritpathSummary{Requests: 1, Stages: []CritpathStage{
				{Stage: "write", MeanFrac: 1, P99Frac: 1, P999Frac: 1, MeanSec: 5e-7},
			}}},
	}
	tables := BlameTables(runs)
	if len(tables) != 3 {
		t.Fatalf("got %d tables, want blame+exemplar for run 0 and blame for run 1", len(tables))
	}
	blame, ex, second := tables[0], tables[1], tables[2]
	if want := "latency blame fig7/SmartDS-1#0 (primary, 2 sampled requests)"; blame.Title != want {
		t.Errorf("blame title %q, want %q", blame.Title, want)
	}
	if want := []string{"stage", "kind", "mean%", "p99%", "p999%", "mean"}; !reflect.DeepEqual(blame.Columns, want) {
		t.Errorf("blame columns %v, want %v", blame.Columns, want)
	}
	wantRows := [][]string{
		{"mt/replicate.wait", "wait", "75.0%", "80.0%", "80.5%", "30.00 us"},
		{"net/request", "service", "25.0%", "20.0%", "19.5%", "10.00 us"},
	}
	if !reflect.DeepEqual(blame.Rows, wantRows) {
		t.Errorf("blame rows %v, want %v", blame.Rows, wantRows)
	}
	if want := "p999 exemplar fig7/SmartDS-1#0 (trace 0000000000000007, e2e 40.00 us)"; ex.Title != want {
		t.Errorf("exemplar title %q, want %q", ex.Title, want)
	}
	wantSegs := [][]string{
		{"net/request", "service", "10.00 us", "25.0%"},
		{"mt/replicate.wait", "wait", "30.00 us", "75.0%"},
	}
	if !reflect.DeepEqual(ex.Rows, wantSegs) {
		t.Errorf("exemplar rows %v, want %v", ex.Rows, wantSegs)
	}
	if want := "latency blame fig7/SmartDS-1#1 (chain, 1 sampled requests)"; second.Title != want {
		t.Errorf("second run title %q, want %q", second.Title, want)
	}
	if len(BlameTables(runs[:1])) != 0 {
		t.Error("a run without a critpath section rendered a table")
	}
}
