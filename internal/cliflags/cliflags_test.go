package cliflags

import (
	"bytes"
	"flag"
	"io"
	"testing"
)

func parse(t *testing.T, args ...string) *Common {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return c
}

func TestDefaults(t *testing.T) {
	c := parse(t)
	if c.Seed != 42 || c.TraceSample != 1 || c.Replication != "primary" {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if c.NewTracer() != nil {
		t.Fatal("tracer built with no trace flags")
	}
	if c.NewRegistry() != nil {
		t.Fatal("registry built with no artifact flags")
	}
	if c.NewLogger(io.Discard, func() float64 { return 0 }) != nil {
		t.Fatal("logger built with no -log-level")
	}
	if specs, err := c.SLO(); err != nil || specs != nil {
		t.Fatalf("empty -slo parsed to %v, %v", specs, err)
	}
	if _, err := c.Protocol(); err != nil {
		t.Fatalf("default replication rejected: %v", err)
	}
}

func TestTracerSampling(t *testing.T) {
	c := parse(t, "-trace", "out.json", "-trace-sample", "0.01", "-seed", "7")
	tr := c.NewTracer()
	if tr == nil {
		t.Fatal("-trace set but no tracer")
	}
	if tr.SampleRate() != 0.01 {
		t.Fatalf("sample rate %v, want 0.01", tr.SampleRate())
	}
	// -breakdown builds a tracer and a registry even without -trace or
	// -report: its blame tables come from the run records.
	c2 := parse(t, "-breakdown")
	if c2.NewTracer() == nil || c2.NewRegistry() == nil {
		t.Fatal("-breakdown did not get a tracer and a registry")
	}
	// Full rate leaves sampling off (identity ForRequest).
	full := parse(t, "-trace", "x").NewTracer()
	if full.SampleRate() != 1 {
		t.Fatalf("default sample rate %v, want 1", full.SampleRate())
	}
}

func TestSLOAndLogger(t *testing.T) {
	c := parse(t, "-slo", "avail:99.9;ttr:10ms", "-log-level", "warn")
	specs, err := c.SLO()
	if err != nil || len(specs) != 2 {
		t.Fatalf("SLO() = %v, %v", specs, err)
	}
	var buf bytes.Buffer
	log := c.NewLogger(&buf, func() float64 { return 0 })
	if log == nil {
		t.Fatal("no logger despite -log-level")
	}
	log.Info("dropped")
	log.Warn("kept")
	if got := buf.String(); got != "0.000000 WARN  kept\n" {
		t.Fatalf("level filter wrong: %q", got)
	}
	if _, err := parse(t, "-slo", "bogus:1").SLO(); err == nil {
		t.Fatal("bad -slo accepted")
	}
}

func TestRegistryAndArtifacts(t *testing.T) {
	c := parse(t, "-metrics", "m.prom", "-label-budget", "3")
	reg := c.NewRegistry()
	if reg == nil || reg.LabelBudget != 3 {
		t.Fatalf("registry %+v, want label budget 3", reg)
	}
	wrote := map[string]bool{}
	err := c.WriteArtifacts(reg, func(path string, fn func(io.Writer) error) error {
		wrote[path] = true
		return fn(io.Discard)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !wrote["m.prom"] || len(wrote) != 1 {
		t.Fatalf("wrote %v, want just m.prom", wrote)
	}
}
