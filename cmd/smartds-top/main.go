// Command smartds-top is the observability dashboard for run
// artifacts: it renders the run table, fired SLO alerts, and the top-K
// hottest time series (with unicode sparklines when full series data
// is available) from the files smartds-bench / smartds-sim write.
//
// Usage:
//
//	smartds-top -report report.json                     # static snapshot
//	smartds-top -report report.json -series series.json # with sparklines
//	smartds-top -report report.json -k 10               # ten hottest series
//
// The output is a single static snapshot whose bytes are a pure
// function of the input files — CI archives it next to the report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"github.com/disagg/smartds/internal/metrics"
	"github.com/disagg/smartds/internal/telemetry"
)

func main() {
	reportPath := flag.String("report", "", "run report JSON (smartds-bench -report)")
	seriesPath := flag.String("series", "", "sampled series JSON (smartds-bench -series-json); enables sparklines")
	topK := flag.Int("k", 8, "number of hottest series to show")
	flag.Parse()

	if *reportPath == "" {
		fmt.Fprintln(os.Stderr, "smartds-top: -report is required")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var buf strings.Builder
	if err := render(&buf, *reportPath, *seriesPath, *topK); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	io.WriteString(os.Stdout, buf.String())
}

// seriesFile mirrors telemetry.WriteSeriesJSON's on-disk layout.
type seriesFile struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Digest telemetry.Digest  `json:"digest"`
	Points []telemetry.Point `json:"points"`
}

// render draws one full snapshot into w from the artifact files.
func render(w io.Writer, reportPath, seriesPath string, topK int) error {
	rep, err := telemetry.LoadReport(reportPath)
	if err != nil {
		return err
	}
	var series []seriesFile
	if seriesPath != "" {
		data, err := os.ReadFile(seriesPath)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &series); err != nil {
			return fmt.Errorf("smartds-top: parse %s: %w", seriesPath, err)
		}
	}

	fmt.Fprintf(w, "smartds-top — report %q seed %d quick=%v (%d runs)\n\n",
		rep.Name, rep.Seed, rep.Quick, len(rep.Runs))

	runs := metrics.NewTable("runs", "run", "requests", "errors", "req/s", "throughput", "p50", "p999", "alerts")
	for _, rr := range rep.Runs {
		runs.AddRow(rr.Key(), rr.Requests, rr.Errors,
			fmt.Sprintf("%.0f", rr.ReqPerSec),
			metrics.FormatGbps(rr.ThroughputBps),
			metrics.FormatDuration(rr.Latency.P50),
			metrics.FormatDuration(rr.Latency.P999),
			len(rr.Alerts))
	}
	fmt.Fprintln(w, runs.String())

	renderAlerts(w, rep)
	renderBlame(w, rep)
	renderTop(w, rep, series, topK)
	return nil
}

// renderBlame prints each run's latency blame panel: the top stages of
// the critical-path attribution with a bar per mean share, then the
// p999 exemplar's segment drill-down. Skipped entirely for reports
// recorded without tracing.
func renderBlame(w io.Writer, rep *telemetry.Report) {
	any := false
	for _, rr := range rep.Runs {
		if rr.Critpath != nil {
			any = true
			break
		}
	}
	if !any {
		return
	}
	tbl := metrics.NewTable("latency blame (critical-path share of client latency)",
		"run", "stage", "kind", "mean%", "p999%", "share")
	const maxStages = 4
	for _, rr := range rep.Runs {
		cp := rr.Critpath
		if cp == nil {
			continue
		}
		for i, st := range cp.Stages {
			if i >= maxStages {
				break
			}
			kind := "service"
			if st.Wait {
				kind = "wait"
			}
			tbl.AddRow(rr.Key(), st.Stage, kind,
				fmt.Sprintf("%.1f%%", st.MeanFrac*100),
				fmt.Sprintf("%.1f%%", st.P999Frac*100),
				shareBar(st.MeanFrac, 12))
		}
	}
	fmt.Fprintln(w, tbl.String())

	ex := metrics.NewTable("p999 exemplars (worst sampled request per run)",
		"run", "trace", "e2e", "critical path")
	for _, rr := range rep.Runs {
		cp := rr.Critpath
		if cp == nil || cp.P999 == nil {
			continue
		}
		var b strings.Builder
		for i, seg := range cp.P999.Segments {
			if i > 0 {
				b.WriteString(" → ")
			}
			fmt.Fprintf(&b, "%s %.0f%%", seg.Stage, seg.Frac*100)
		}
		ex.AddRow(rr.Key(), cp.P999.TraceID,
			metrics.FormatDuration(cp.P999.E2E), b.String())
	}
	fmt.Fprintln(w, ex.String())
}

// shareBar renders a 0..1 fraction as a fixed-width bar.
func shareBar(frac float64, width int) string {
	n := int(frac*float64(width) + 0.5)
	if n > width {
		n = width
	}
	return strings.Repeat("█", n) + strings.Repeat("·", width-n)
}

// renderAlerts prints the fired-alert section (always present, so a
// clean run visibly says so).
func renderAlerts(w io.Writer, rep *telemetry.Report) {
	fired := 0
	tbl := metrics.NewTable("SLO alerts", "run", "slo", "kind", "at", "burn", "detail")
	for _, rr := range rep.Runs {
		for _, al := range rr.Alerts {
			fired++
			tbl.AddRow(rr.Key(), al.SLO, al.Kind,
				metrics.FormatDuration(al.At),
				fmt.Sprintf("%.3gx/%.3gx", al.BurnShort, al.BurnLong),
				al.Detail)
		}
	}
	if fired == 0 {
		fmt.Fprintln(w, "SLO alerts: none fired")
		fmt.Fprintln(w)
		return
	}
	fmt.Fprintln(w, tbl.String())
}

// topEntry is one ranked series row.
type topEntry struct {
	name   string
	labels string
	digest telemetry.Digest
	points []telemetry.Point
}

// renderTop ranks series by mean magnitude and prints the top K with
// sparklines (from full series data when available, digests otherwise).
func renderTop(w io.Writer, rep *telemetry.Report, series []seriesFile, topK int) {
	var entries []topEntry
	if len(series) > 0 {
		for _, s := range series {
			entries = append(entries, topEntry{
				name: s.Name, labels: labelString(s.Labels), digest: s.Digest, points: s.Points,
			})
		}
	} else {
		for _, s := range rep.Series {
			entries = append(entries, topEntry{
				name: s.Name, labels: labelString(s.Labels), digest: s.Digest,
			})
		}
	}
	if len(entries) == 0 {
		fmt.Fprintln(w, "series: none sampled")
		return
	}
	// Rank hot-first; ties break on (name, labels) so equal-magnitude
	// series render in a deterministic order.
	sort.Slice(entries, func(i, j int) bool {
		mi, mj := math.Abs(entries[i].digest.Mean), math.Abs(entries[j].digest.Mean)
		if mi != mj {
			return mi > mj
		}
		if entries[i].name != entries[j].name {
			return entries[i].name < entries[j].name
		}
		return entries[i].labels < entries[j].labels
	})
	if topK > 0 && len(entries) > topK {
		entries = entries[:topK]
	}
	tbl := metrics.NewTable(fmt.Sprintf("top %d series by mean", len(entries)),
		"series", "last", "mean", "max", "trend")
	for _, e := range entries {
		tbl.AddRow(e.name+e.labels,
			fmt.Sprintf("%.4g", e.digest.Last),
			fmt.Sprintf("%.4g", e.digest.Mean),
			fmt.Sprintf("%.4g", e.digest.Max),
			sparkline(e.points, 24))
	}
	fmt.Fprintln(w, tbl.String())
}

// sparkBars is the eight-level unicode bar ramp.
var sparkBars = []rune("▁▂▃▄▅▆▇█")

// sparkline renders up to width points as a unicode bar strip, scaled
// min..max over the window ("-" when no point data is available).
func sparkline(pts []telemetry.Point, width int) string {
	if len(pts) == 0 {
		return "-"
	}
	if len(pts) > width {
		// Downsample by striding from the tail so the most recent
		// points always survive.
		stride := (len(pts) + width - 1) / width
		var kept []telemetry.Point
		for i := len(pts) - 1; i >= 0; i -= stride {
			kept = append(kept, pts[i])
		}
		for l, r := 0, len(kept)-1; l < r; l, r = l+1, r-1 {
			kept[l], kept[r] = kept[r], kept[l]
		}
		pts = kept
	}
	lo, hi := pts[0].Value, pts[0].Value
	for _, p := range pts {
		lo, hi = math.Min(lo, p.Value), math.Max(hi, p.Value)
	}
	var b strings.Builder
	for _, p := range pts {
		idx := 0
		if hi > lo {
			idx = int((p.Value - lo) / (hi - lo) * float64(len(sparkBars)-1))
		}
		b.WriteRune(sparkBars[idx])
	}
	return b.String()
}

// labelString renders a label map deterministically (sorted keys).
func labelString(m map[string]string) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(m[k])
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}
