package cliflags

import (
	"flag"
	"io"
	"strings"
	"testing"

	"github.com/disagg/smartds/internal/middletier"
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
	// -slo builds a registry: the printed alert table reads the run
	// records.
	if parse(t, "-slo", "p999:5ms").NewRegistry() == nil {
		t.Fatal("-slo did not get a registry")
	}
	// Full rate leaves sampling off (identity ForRequest).
	full := parse(t, "-trace", "x").NewTracer()
	if full.SampleRate() != 1 {
		t.Fatalf("default sample rate %v, want 1", full.SampleRate())
	}
}

func TestSLO(t *testing.T) {
	c := parse(t, "-slo", "avail:99.9;ttr:10ms")
	specs, err := c.SLO()
	if err != nil || len(specs) != 2 {
		t.Fatalf("SLO() = %v, %v", specs, err)
	}
	if _, err := parse(t, "-slo", "bogus:1").SLO(); err == nil {
		t.Fatal("bad -slo accepted")
	}
}

func TestRegistryAndArtifacts(t *testing.T) {
	c := parse(t, "-series-json", "s.json")
	reg := c.NewRegistry()
	if reg == nil {
		t.Fatal("-series-json set but no registry")
	}
	wrote := map[string]bool{}
	err := c.WriteSeries(reg, func(path string, fn func(io.Writer) error) error {
		wrote[path] = true
		return fn(io.Discard)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !wrote["s.json"] || len(wrote) != 1 {
		t.Fatalf("wrote %v, want just s.json", wrote)
	}
	// The run report and the series file are the only artifacts:
	// -metrics and -series-csv are unknown flags.
	for _, retired := range []string{"-metrics", "-series-csv"} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		Register(fs)
		if err := fs.Parse([]string{retired, "x"}); err == nil {
			t.Errorf("%s accepted", retired)
		}
	}
}

func TestProtocolFlag(t *testing.T) {
	for name, want := range map[string]middletier.Protocol{
		"primary": middletier.ProtoPrimary,
		"chain":   middletier.ProtoChain,
		"quorum":  middletier.ProtoQuorum,
	} {
		if got, err := parse(t, "-replication", name).Protocol(); err != nil || got != want {
			t.Errorf("-replication %s = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := parse(t, "-replication", "paxos").Protocol(); err == nil || !strings.Contains(err.Error(), "paxos") {
		t.Fatalf("-replication paxos = %v, want an error naming it", err)
	}
}
