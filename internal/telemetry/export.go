package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// SeriesRecord is one series of the WriteSeriesJSON file.
type SeriesRecord struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Digest Digest            `json:"digest"`
	Points []Point           `json:"points"`
}

// WriteSeriesJSON dumps every sampled series with full point data as
// one JSON document (canonical order, stable encoding).
func (r *Registry) WriteSeriesJSON(w io.Writer) error {
	var out []SeriesRecord
	for _, m := range r.Metrics() {
		if m.series == nil {
			continue
		}
		out = append(out, SeriesRecord{
			Name:   m.name,
			Labels: m.labels.Map(),
			Digest: m.series.Digest(),
			Points: m.series.Points(),
		})
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return fmt.Errorf("telemetry: encode series: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadSeriesJSON parses a file WriteSeriesJSON wrote.
func ReadSeriesJSON(rd io.Reader) ([]SeriesRecord, error) {
	var out []SeriesRecord
	if err := json.NewDecoder(rd).Decode(&out); err != nil {
		return nil, fmt.Errorf("telemetry: decode series: %w", err)
	}
	return out, nil
}
