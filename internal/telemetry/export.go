package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// WriteSeriesCSV dumps every sampled time series in long form:
// one row per point, `metric,labels,t_sec,value`, series in canonical
// (name, labels) order and points chronological. Loads directly into
// pandas / gnuplot for time-resolved views of a fault window.
func (r *Registry) WriteSeriesCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "metric,labels,t_sec,value\n"); err != nil {
		return err
	}
	for _, m := range r.Metrics() {
		if m.series == nil {
			continue
		}
		label := csvQuote(m.labels.String())
		for _, p := range m.series.Points() {
			row := m.name + "," + label + "," +
				strconv.FormatFloat(p.At, 'g', -1, 64) + "," +
				strconv.FormatFloat(p.Value, 'g', -1, 64) + "\n"
			if _, err := io.WriteString(w, row); err != nil {
				return err
			}
		}
	}
	return nil
}

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

// csvQuote wraps a field in quotes, doubling embedded quotes (RFC 4180).
func csvQuote(s string) string {
	out := make([]byte, 0, len(s)+2)
	out = append(out, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			out = append(out, '"')
		}
		out = append(out, s[i])
	}
	return string(append(out, '"'))
}
