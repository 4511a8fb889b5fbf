package faults

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/disagg/smartds/internal/netsim"
	"github.com/disagg/smartds/internal/sim"
	"github.com/disagg/smartds/internal/storage"
	"github.com/disagg/smartds/internal/trace"
)

// testTarget is the minimal target for arm-time validation: a fabric
// with one client port and two storage servers, no middle tier.
func testTarget() Target {
	e := sim.NewEnv()
	f := netsim.NewFabric(e, netsim.Config{WireLatency: 1e-6, MTU: 4096})
	f.NewPort("vm0", 1e9)
	// Only the slice length is consulted at arm time.
	servers := make([]*storage.Server, 2)
	return Target{Env: e, Fabric: f, Storage: servers, Seed: 1}
}

func TestArmValidation(t *testing.T) {
	cases := []struct{ spec, want string }{
		{"crash:ss5@1ms+1ms", "no storage server"},
		{"crash:vm0@1ms+1ms", "crash targets a storage server"},
		{"loss:ghost@1ms+1ms:0.1", "no fabric port"},
		{"loss:ghost->vm0@1ms+1ms:0.1", "no fabric port"},
		{"degrade:ghost@1ms+1ms:0.5", "no fabric port"},
		{"engine:vm0@1ms+1ms", "engine faults target the middle tier"},
		{"restart:vm0@1ms+1ms", "restart targets the middle tier"},
	}
	for _, tc := range cases {
		inj := New(testTarget(), MustParse(tc.spec))
		err := inj.Arm()
		if err == nil {
			t.Errorf("Arm(%q) = nil error, want one mentioning %q", tc.spec, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Arm(%q) error %q does not mention %q", tc.spec, err, tc.want)
		}
	}
}

func TestArmTwiceRejected(t *testing.T) {
	inj := New(testTarget(), MustParse("loss:vm0@1ms+1ms:0.1"))
	if err := inj.Arm(); err != nil {
		t.Fatalf("first Arm: %v", err)
	}
	if err := inj.Arm(); err == nil || !strings.Contains(err.Error(), "already armed") {
		t.Fatalf("second Arm = %v, want already-armed error", err)
	}
}

func TestLossRuleWindowAndEndpoints(t *testing.T) {
	a, b := netsim.Addr("a"), netsim.Addr("b")
	rule := &lossRule{
		start: 1e-3, end: 2e-3,
		src: addrSet([]netsim.Addr{a}), dst: addrSet([]netsim.Addr{b}),
		model: blockAll{},
	}
	msg := &netsim.Message{Src: a, Dst: b}
	if rule.matches(0.5e-3, msg) {
		t.Fatal("matched before the window opened")
	}
	if !rule.matches(1.5e-3, msg) {
		t.Fatal("did not match inside the window")
	}
	if rule.matches(2e-3, msg) {
		t.Fatal("matched at/after the window closed")
	}
	if rule.matches(1.5e-3, &netsim.Message{Src: b, Dst: a}) {
		t.Fatal("matched the reverse direction")
	}
	// Wildcard endpoints (nil sets) match anything inside the window.
	wild := &lossRule{start: 1e-3, end: 2e-3, model: blockAll{}}
	if !wild.matches(1.5e-3, &netsim.Message{Src: b, Dst: a}) {
		t.Fatal("wildcard rule did not match")
	}
}

func TestLossSetChainsPreviousPredicate(t *testing.T) {
	e := sim.NewEnv()
	f := netsim.NewFabric(e, netsim.Config{WireLatency: 1e-6, MTU: 4096})
	prevCalled := false
	f.SetLossFn(func(m *netsim.Message) bool { prevCalled = true; return false })

	ls := &lossSet{env: e, rules: []*lossRule{
		{start: 0, end: 1, model: blockAll{}},
	}}
	ls.install(f)

	fn := f.LossFn()
	if !fn(&netsim.Message{Src: "a", Dst: "b"}) {
		t.Fatal("blockAll rule did not drop")
	}
	if !prevCalled {
		t.Fatal("previously installed LossFn was not consulted")
	}
}

// faultInstants returns the "faults" track's instants as "name@µs detail".
func faultInstants(tr *trace.Tracer) []string {
	var out []string
	for _, ev := range tr.Events() {
		if ev.Component == "faults" && ev.Dur == 0 && !ev.Counter {
			out = append(out, fmt.Sprintf("%s@%gus %s", ev.Name, ev.At*1e6, ev.Detail))
		}
	}
	return out
}

func TestLossTransitionsTraced(t *testing.T) {
	tgt := testTarget()
	tgt.Trace = trace.New(64)
	sched := MustParse("loss:vm0@1ms+1ms:0.1")
	if err := New(tgt, sched).Arm(); err != nil {
		t.Fatal(err)
	}
	tgt.Env.Run(5e-3)
	spec := sched.Events[0].String()
	want := []string{"loss-start@1000us " + spec, "loss-end@2000us " + spec}
	if got := faultInstants(tgt.Trace); !slices.Equal(got, want) {
		t.Fatalf("faults track = %q, want %q", got, want)
	}
}

func TestDegradeTracedAndRateRestored(t *testing.T) {
	tgt := testTarget()
	tgt.Trace = trace.New(64)
	port := tgt.Fabric.Port("vm0")
	base := port.Rate()
	if err := New(tgt, MustParse("degrade:vm0@1ms+1ms:0.25")).Arm(); err != nil {
		t.Fatal(err)
	}
	tgt.Env.Run(1.5e-3)
	if got := port.Rate(); got != base*0.25 {
		t.Fatalf("rate inside the window = %g, want %g", got, base*0.25)
	}
	tgt.Env.Run(5e-3)
	if got := port.Rate(); got != base {
		t.Fatalf("rate after the window = %g, want %g", got, base)
	}
	got := faultInstants(tgt.Trace)
	if len(got) != 2 || !strings.HasPrefix(got[0], "degrade-start@1000us ") ||
		!strings.HasPrefix(got[1], "degrade-end@2000us ") {
		t.Fatalf("faults track = %q, want degrade-start at 1 ms and degrade-end at 2 ms", got)
	}
}

// Tracing is optional: a campaign armed without a tracer still fires
// every transition.
func TestUntracedCampaignRuns(t *testing.T) {
	tgt := testTarget()
	port := tgt.Fabric.Port("vm0")
	base := port.Rate()
	if err := New(tgt, MustParse("loss:vm0@1ms+1ms:0.1;degrade:vm0@2ms+1ms:0.5")).Arm(); err != nil {
		t.Fatal(err)
	}
	tgt.Env.Run(2.5e-3)
	if got := port.Rate(); got != base*0.5 {
		t.Fatalf("untraced degrade did not fire: rate %g, want %g", got, base*0.5)
	}
	tgt.Env.Run(0)
	if got := port.Rate(); got != base {
		t.Fatalf("untraced degrade did not end: rate %g, want %g", got, base)
	}
}
