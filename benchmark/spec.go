package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// spec is BENCHMARK.json: the workloads and the metrics every run must
// print, each with its unit, direction and (end to end) bound.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// loadSpec reads and validates BENCHMARK.json against the workloads
// this program runs.
func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *spec) validate() error {
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	for _, w := range s.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			return fmt.Errorf("bad or repeated workload name %q", w.Name)
		}
		seen[w.Name] = true
		if _, err := findWorkload(w.Name); err != nil {
			return err
		}
	}
	if len(s.Workloads) != len(workloads) {
		return fmt.Errorf("%d workloads declared, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for i, group := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range group {
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				return fmt.Errorf("bad or repeated metric name %q", m.Name)
			}
			seen[m.Name] = true
			if !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("metric %s: better is %q", m.Name, m.Better)
			}
			if i == 0 && (m.Bound <= 0 || m.Bound > 0.25) {
				return fmt.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	return nil
}
