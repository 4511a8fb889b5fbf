package main

import (
	"strings"
	"testing"
)

// TestMultichecker runs the full analyzer suite end-to-end against a
// fixture tree containing exactly one violation per analyzer and
// asserts each diagnostic fires with its expected message.
func TestMultichecker(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"./testdata/tree/..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	got := out.String()
	wants := []struct{ file, analyzer, fragment string }{
		{"clock/clock.go", "wallclock", "wall-clock time.Now in simulation code"},
		{"randpkg/randpkg.go", "randsrc", "import of math/rand outside internal/rng"},
		{"maps/maps.go", "maporder", "append inside map iteration builds a slice in map order"},
		{"spawn/spawn.go", "simspawn", "bare go statement races the cooperative scheduler"},
		// The observability-layer shapes: a logger formatting a label map
		// into the line buffer, and an SLO alert stamped off the host clock.
		{"evlogger/evlogger.go", "maporder", "call to ordered sink WriteString inside map iteration"},
		{"sloalerts/sloalerts.go", "wallclock", "wall-clock time.Now in simulation code"},
		// The interprocedural shapes: hotstage's roots are minted by
		// registrations against the tree's internal/sim package, so
		// these require the whole-program call graph.
		{"hotstage/hotstage.go", "hotalloc", "append may grow the backing array"},
		{"hotstage/hotstage.go", "hotalloc", "interface boxing of int allocates"},
		{"hotstage/hotstage.go", "simblock", "os.Open performs host I/O"},
		{"ackpath/ackpath.go", "errdrop", "silently discarded on an ack/durability path"},
		{"gctune/gctune.go", "finalizer", "runtime.GC manipulates the collector/scheduler in host time"},
	}
	for _, w := range wants {
		found := false
		for _, line := range strings.Split(got, "\n") {
			if strings.Contains(line, w.file) &&
				strings.Contains(line, w.analyzer+": ") &&
				strings.Contains(line, w.fragment) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s diagnostic for %s containing %q\noutput:\n%s", w.analyzer, w.file, w.fragment, got)
		}
	}
	if n := strings.Count(strings.TrimSpace(got), "\n") + 1; n != len(wants) {
		t.Errorf("diagnostic count = %d, want exactly %d\noutput:\n%s", n, len(wants), got)
	}
}

// TestMulticheckerCleanTree asserts a violation-free tree exits 0.
func TestMulticheckerCleanTree(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"./testdata/clean/..."}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("unexpected diagnostics on clean tree:\n%s", out.String())
	}
}

// TestWaiverAudit asserts the audit, which always runs, rejects both
// failure modes: a waiver naming an unknown analyzer key, and a waiver
// for a real analyzer that never suppresses a finding.
func TestWaiverAudit(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"./testdata/audit/..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	got := out.String()
	if !strings.Contains(got, `unknown waiver key "nosuchkey"`) {
		t.Errorf("no unknown-key audit error:\n%s", got)
	}
	if !strings.Contains(got, "//detcheck:wallclock suppresses no finding") {
		t.Errorf("no stale-waiver audit error:\n%s", got)
	}
}

// TestWaiverAuditCleanOnUsedWaivers asserts the audit stays quiet for
// waivers that actually suppress findings (tree/internal/clock carries
// a used //detcheck:wallclock).
func TestWaiverAuditCleanOnUsedWaivers(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"./testdata/tree/..."}, &out, &errb)
	if code != 1 { // the tree's real findings still fail the run
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, errb.String())
	}
	if got := out.String(); strings.Contains(got, "waiver-audit:") {
		t.Errorf("audit errors on a tree whose waivers are all used:\n%s", got)
	}
}

// TestRejectsFlags asserts the driver takes package patterns only: a
// flag-shaped argument prints the usage and exits 2 without loading.
func TestRejectsFlags(t *testing.T) {
	for _, arg := range []string{"-waiver-audit", "-wallclock=false", "-h"} {
		var out, errb strings.Builder
		if code := run([]string{arg, "./testdata/clean/..."}, &out, &errb); code != 2 {
			t.Errorf("%s: exit code = %d, want 2", arg, code)
		}
		if !strings.Contains(errb.String(), "takes no flags") || out.Len() != 0 {
			t.Errorf("%s: stdout %q, stderr %q", arg, out.String(), errb.String())
		}
	}
}
