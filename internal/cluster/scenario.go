package cluster

import (
	"encoding/json"
	"fmt"

	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/middletier"
)

// Scenario is the JSON-friendly description of a cluster plus workload,
// consumed by `smartds-sim -config file.json`. Zero fields keep their
// defaults, so a scenario can be as small as {"kind": "smartds"}.
type Scenario struct {
	// Kind is the middle-tier design: cpu | acc | bf2 | smartds.
	Kind string `json:"kind"`
	// Seed makes the run reproducible.
	Seed uint64 `json:"seed"`

	// Middle-tier knobs.
	Workers          int     `json:"workers"`
	Ports            int     `json:"ports"`
	Replicas         int     `json:"replicas"`
	CompressionLevel int     `json:"compression_level"`
	DDIO             *bool   `json:"ddio"`
	PortGbps         float64 `json:"port_gbps"`
	SplitBytes       int     `json:"split_bytes"`

	// Cluster shape.
	StorageServers int     `json:"storage_servers"`
	Clients        int     `json:"clients"`
	Functional     *bool   `json:"functional"`
	DiskGBps       float64 `json:"disk_gbps"`

	// Workload.
	Window         int     `json:"window"`
	OpenRate       float64 `json:"open_rate"`
	WarmupMs       float64 `json:"warmup_ms"`
	MeasureMs      float64 `json:"measure_ms"`
	ReadFraction   float64 `json:"read_fraction"`
	BypassFraction float64 `json:"bypass_fraction"`

	// Maintenance services on/off.
	Maintenance bool `json:"maintenance"`
}

// ParseScenario decodes and validates a JSON scenario.
func ParseScenario(data []byte) (*Scenario, error) {
	var sc Scenario
	if err := json.Unmarshal(data, &sc); err != nil {
		return nil, fmt.Errorf("cluster: scenario: %w", err)
	}
	if _, err := sc.kind(); err != nil {
		return nil, err
	}
	if sc.CompressionLevel != 0 && !lz4.Level(sc.CompressionLevel).Valid() {
		return nil, fmt.Errorf("cluster: scenario: compression_level %d out of range 1..9", sc.CompressionLevel)
	}
	if sc.ReadFraction < 0 || sc.ReadFraction > 1 {
		return nil, fmt.Errorf("cluster: scenario: read_fraction %g out of range", sc.ReadFraction)
	}
	if sc.BypassFraction < 0 || sc.BypassFraction > 1 {
		return nil, fmt.Errorf("cluster: scenario: bypass_fraction %g out of range", sc.BypassFraction)
	}
	return &sc, nil
}

// kind parses the scenario's design; an empty kind means CPU-only.
func (sc *Scenario) kind() (middletier.Kind, error) {
	if sc.Kind == "" {
		return middletier.CPUOnly, nil
	}
	k, err := middletier.ParseKind(sc.Kind)
	if err != nil {
		return 0, fmt.Errorf("cluster: scenario: %w", err)
	}
	return k, nil
}

// ClusterConfig materializes the cluster half of the scenario.
func (sc *Scenario) ClusterConfig() (Config, error) {
	kind, err := sc.kind()
	if err != nil {
		return Config{}, err
	}
	cfg := DefaultConfig(kind)
	if sc.Seed != 0 {
		cfg.Seed = sc.Seed
	}
	if sc.Workers > 0 {
		cfg.MT.Workers = sc.Workers
	}
	if sc.Ports > 0 {
		cfg.MT.Ports = sc.Ports
	}
	if sc.Replicas > 0 {
		cfg.MT.Replicas = sc.Replicas
	}
	if sc.CompressionLevel > 0 {
		cfg.MT.Level = lz4.Level(sc.CompressionLevel)
	}
	if sc.DDIO != nil {
		cfg.MT.DDIO = *sc.DDIO
	}
	if sc.PortGbps > 0 {
		cfg.MT.PortRate = sc.PortGbps * 1e9 / 8
	}
	if sc.SplitBytes > 0 {
		cfg.MT.SplitBytes = sc.SplitBytes
	}
	if sc.StorageServers > 0 {
		cfg.NumStorage = sc.StorageServers
	}
	if sc.Clients > 0 {
		cfg.NumClients = sc.Clients
	}
	if sc.Functional != nil {
		cfg.Functional = *sc.Functional
	}
	if sc.DiskGBps > 0 {
		cfg.Disk.BytesPerSec = sc.DiskGBps * 1e9
	}
	return cfg, nil
}

// WorkloadConfig materializes the workload half.
func (sc *Scenario) WorkloadConfig() Workload {
	w := Workload{
		Window:         sc.Window,
		Rate:           sc.OpenRate,
		Warmup:         sc.WarmupMs * 1e-3,
		Measure:        sc.MeasureMs * 1e-3,
		ReadFraction:   sc.ReadFraction,
		BypassFraction: sc.BypassFraction,
	}
	if w.Warmup <= 0 {
		w.Warmup = 5e-3
	}
	if w.Measure <= 0 {
		w.Measure = 20e-3
	}
	return w
}
