package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus / OpenMetrics text exposition.
//
// WritePrometheus renders version 0.0.4 text format; WriteOpenMetrics
// renders the OpenMetrics superset, which additionally carries bucket
// exemplars ("# {trace_id=...}") linking slow histogram buckets back to
// the trace that landed there, and terminates with "# EOF". Both share
// one family walk so the grammar rules hold for each: every family gets
// exactly one HELP and one TYPE line, families are emitted in sorted
// order, family names never repeat, and HELP/label values are escaped
// per the spec.

// promFamily is one metric family flattened for export.
type promFamily struct {
	name string
	help string
	typ  string // "counter" | "gauge" | "histogram"
	c    *CounterMetric
	g    *GaugeMetric
	h    *HistogramMetric
	// Fixed-sample families (build_info, uptime) carry a pre-rendered
	// label block and a literal value instead of a metric handle.
	labels string
	fixed  int64
	isInfo bool
}

// families snapshots the registry as a sorted, duplicate-checked family
// list.
func (r *Registry) families() ([]promFamily, error) {
	r.mu.Lock()
	fams := make([]promFamily, 0, len(r.counts)+len(r.gauges)+len(r.hists)+2)
	for _, c := range r.counts {
		fams = append(fams, promFamily{name: c.name, help: c.help, typ: "counter", c: c})
	}
	for _, g := range r.gauges {
		fams = append(fams, promFamily{name: g.name, help: g.help, typ: "gauge", g: g})
	}
	for _, h := range r.hists {
		fams = append(fams, promFamily{name: h.name, help: h.help, typ: "histogram", h: h})
	}
	if r.buildInfo != nil {
		fams = append(fams,
			promFamily{name: MBuildInfo, help: helpFor(MBuildInfo), typ: "gauge",
				labels: buildInfoLabels(*r.buildInfo), fixed: 1, isInfo: true},
			promFamily{name: MUptimeSeconds, help: helpFor(MUptimeSeconds), typ: "gauge",
				fixed: int64(nowSince(r.start)), isInfo: true})
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for i := 1; i < len(fams); i++ {
		if fams[i].name == fams[i-1].name {
			return nil, fmt.Errorf("obs: duplicate metric family %q (%s and %s)",
				fams[i].name, fams[i-1].typ, fams[i].typ)
		}
	}
	return fams, nil
}

// escapeHelp escapes a HELP string per the exposition format: backslash
// and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4): one HELP and TYPE line per family, families
// globally sorted by name, counters and gauges as single samples,
// histograms as cumulative log₂ buckets plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writeExposition(w, false)
}

// WriteOpenMetrics renders the registry in OpenMetrics text format:
// the same families as WritePrometheus plus per-bucket exemplars and
// the mandatory "# EOF" terminator.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	return r.writeExposition(w, true)
}

func (r *Registry) writeExposition(w io.Writer, openMetrics bool) error {
	if r == nil {
		return fmt.Errorf("obs: no metrics registry installed")
	}
	fams, err := r.families()
	if err != nil {
		return err
	}
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, escapeHelp(f.help), f.name, f.typ); err != nil {
			return err
		}
		switch f.typ {
		case "counter":
			if _, err := fmt.Fprintf(w, "%s %d\n", f.name, f.c.Value()); err != nil {
				return err
			}
		case "gauge":
			v := f.fixed
			if !f.isInfo {
				v = f.g.Value()
			}
			if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, f.labels, v); err != nil {
				return err
			}
		case "histogram":
			if err := writePromHistogram(w, f.h, openMetrics); err != nil {
				return err
			}
		}
	}
	if openMetrics {
		if _, err := io.WriteString(w, "# EOF\n"); err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram emits one histogram family. Bucket i counts
// observations with bits.Len64(v) == i, so its cumulative upper bound
// is 2^i - 1; we emit le="2^i - 1" up to the highest non-empty bucket,
// then le="+Inf". In OpenMetrics mode each bucket that holds an
// exemplar gets the "# {trace_id=...} value timestamp" suffix.
func writePromHistogram(w io.Writer, h *HistogramMetric, openMetrics bool) error {
	top := 0
	for i := histBuckets - 1; i >= 0; i-- {
		if h.buckets[i].Load() > 0 {
			top = i
			break
		}
	}
	var cum uint64
	for i := 0; i <= top; i++ {
		cum += h.buckets[i].Load()
		// Upper bound of bucket i: values v with bits.Len64(v) <= i are
		// exactly v <= 2^i - 1.
		var le string
		if i < 63 {
			le = strconv.FormatUint(1<<uint(i)-1, 10)
		} else {
			le = strconv.FormatFloat(float64(1)*pow2(i)-1, 'g', -1, 64)
		}
		suffix := ""
		if openMetrics {
			if e := h.exemplars[i].Load(); e != nil {
				suffix = fmt.Sprintf(" # {trace_id=\"%s\"} %d %.3f",
					escapeLabelValue(e.TraceID), e.Value, float64(e.UnixNano)/1e9)
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d%s\n", h.name, le, cum, suffix); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, h.Count()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n",
		h.name, h.Sum(), h.name, h.Count()); err != nil {
		return err
	}
	return nil
}

// buildInfoLabels renders the constant label block of the
// optiwise_build_info family, keys in sorted order.
func buildInfoLabels(bi BuildInfo) string {
	return `{commit="` + escapeLabelValue(bi.Commit) +
		`",go_version="` + escapeLabelValue(bi.GoVersion) +
		`",version="` + escapeLabelValue(bi.Version) + `"}`
}

// pow2 returns 2^i as a float64 for bucket bounds past uint64 shifts.
func pow2(i int) float64 {
	v := 1.0
	for ; i > 0; i-- {
		v *= 2
	}
	return v
}
