package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Registry snapshots and their text exposition. A RegistrySnapshot is
// the one read view of a registry: the federation wire unit between
// cluster nodes, the expvar "optiwise_metrics" value, the flight
// recorder's counter source, and the input of the one exposition
// writer behind /metrics, the -metrics exit file and the federated
// /cluster/v1/metrics view. A snapshot carries raw sparse log₂ bucket
// counts rather than rendered text, so any node can re-render a merged
// view in whichever format the client asked for.

// nowSince is a test seam for uptime computation.
var nowSince = func(t0 time.Time) float64 { return time.Since(t0).Seconds() }

// HistogramSnapshot is one histogram's state: sparse log₂ bucket
// counts keyed by bits.Len64 index, each bucket's latest exemplar under
// the same index, plus sum and count.
type HistogramSnapshot struct {
	Buckets   map[int]uint64   `json:"buckets,omitempty"`
	Exemplars map[int]Exemplar `json:"exemplars,omitempty"`
	Sum       uint64           `json:"sum"`
	Count     uint64           `json:"count"`
}

// RegistrySnapshot is a point-in-time copy of every metric in a
// registry, plus the runtime-info families when enabled.
type RegistrySnapshot struct {
	Counters      map[string]uint64            `json:"counters,omitempty"`
	Gauges        map[string]int64             `json:"gauges,omitempty"`
	Histograms    map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Build         *BuildInfo                   `json:"build,omitempty"`
	UptimeSeconds float64                      `json:"uptime_seconds,omitempty"`
}

// NodeSnapshot is one node's registry snapshot as rendered by
// WriteExposition: the node's advertised address ("" for the local,
// unlabeled view), whether the snapshot is a stale last-known copy
// (the peer could not be reached within the staleness budget), and
// when it was fetched.
type NodeSnapshot struct {
	Node            string           `json:"node"`
	Stale           bool             `json:"stale"`
	FetchedUnixNano int64            `json:"fetched_unix_nano,omitempty"`
	Snapshot        RegistrySnapshot `json:"snapshot"`
}

// FullSnapshot copies the registry's current values. Nil-safe: a nil
// registry yields an empty snapshot.
func (r *Registry) FullSnapshot() RegistrySnapshot {
	var snap RegistrySnapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counts) > 0 {
		snap.Counters = make(map[string]uint64, len(r.counts))
		for name, c := range r.counts {
			snap.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		snap.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			snap.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			// Count is the bucket total rather than h.Count(): under
			// concurrent Observe calls the two atomics drift apart, and the
			// le="+Inf" bucket must never read below a finite one.
			hs := HistogramSnapshot{Sum: h.Sum()}
			for i := 0; i < histBuckets; i++ {
				if v := h.buckets[i].Load(); v > 0 {
					if hs.Buckets == nil {
						hs.Buckets = make(map[int]uint64)
					}
					hs.Buckets[i] = v
					hs.Count += v
				}
				if e := h.exemplars[i].Load(); e != nil {
					if hs.Exemplars == nil {
						hs.Exemplars = make(map[int]Exemplar)
					}
					hs.Exemplars[i] = *e
				}
			}
			snap.Histograms[name] = hs
		}
	}
	if r.buildInfo != nil {
		bi := *r.buildInfo
		snap.Build = &bi
		snap.UptimeSeconds = nowSince(r.start)
	}
	return snap
}

// Merge adds to s every family of o that s does not already hold, and
// o's runtime info when s has none. A server's snapshot takes the
// process registry's library families this way.
func (s *RegistrySnapshot) Merge(o RegistrySnapshot) {
	s.Counters = mergeMissing(s.Counters, o.Counters)
	s.Gauges = mergeMissing(s.Gauges, o.Gauges)
	s.Histograms = mergeMissing(s.Histograms, o.Histograms)
	if s.Build == nil {
		s.Build, s.UptimeSeconds = o.Build, o.UptimeSeconds
	}
}

func mergeMissing[V any](dst, src map[string]V) map[string]V {
	for name, v := range src {
		if dst == nil {
			dst = make(map[string]V, len(src))
		}
		if _, ok := dst[name]; !ok {
			dst[name] = v
		}
	}
	return dst
}

// WriteExposition renders snapshots in Prometheus text format (version
// 0.0.4), or in OpenMetrics when openMetrics is set, which adds bucket
// exemplars ("# {trace_id=...}") and the closing "# EOF".
//
// Every family gets exactly one HELP and one TYPE line, families are
// sorted by name, nodes are sorted within each family, and HELP and
// label values are escaped per the spec. A named node's samples carry
// a node label merged into the label block in key order, and the
// optiwise_node_up family reports 1 for each fresh named node and 0
// for a stale one; a node named "" is the local, unlabeled view. When
// one name is registered as different kinds (possible across binary
// versions), the lexically smallest kind wins and the other samples
// are dropped, keeping the exposition parseable. A node appearing
// twice is an error.
func WriteExposition(w io.Writer, nodes []NodeSnapshot, openMetrics bool) error {
	sorted := append([]NodeSnapshot(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Node < sorted[j].Node })
	kinds := map[string]string{}
	haveBuild, named := false, false
	take := func(name, kind string) {
		if k, ok := kinds[name]; !ok || kind < k {
			kinds[name] = kind
		}
	}
	for i := range sorted {
		if i > 0 && sorted[i].Node == sorted[i-1].Node {
			return fmt.Errorf("obs: duplicate node %q in exposition", sorted[i].Node)
		}
		s := &sorted[i].Snapshot
		for name := range s.Counters {
			take(name, "counter")
		}
		for name := range s.Gauges {
			take(name, "gauge")
		}
		for name := range s.Histograms {
			take(name, "histogram")
		}
		haveBuild = haveBuild || s.Build != nil
		named = named || sorted[i].Node != ""
	}
	if haveBuild {
		kinds[MBuildInfo], kinds[MUptimeSeconds] = "gauge", "gauge"
	}
	if named {
		kinds[MNodeUp] = "gauge"
	}
	names := make([]string, 0, len(kinds))
	for name := range kinds {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		kind := kinds[name]
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(helpFor(name)), name, kind)
		for i := range sorted {
			node, s := sorted[i].Node, &sorted[i].Snapshot
			switch {
			case name == MNodeUp:
				if node != "" {
					up := 1
					if sorted[i].Stale {
						up = 0
					}
					fmt.Fprintf(&b, "%s%s %d\n", name, labelBlock(node), up)
				}
			case name == MBuildInfo:
				if bi := s.Build; bi != nil {
					fmt.Fprintf(&b, "%s%s 1\n", name, labelBlock(node,
						"commit", bi.Commit, "go_version", bi.GoVersion, "version", bi.Version))
				}
			case name == MUptimeSeconds:
				if s.Build != nil {
					fmt.Fprintf(&b, "%s%s %d\n", name, labelBlock(node), int64(s.UptimeSeconds))
				}
			case kind == "counter":
				if v, ok := s.Counters[name]; ok {
					fmt.Fprintf(&b, "%s%s %d\n", name, labelBlock(node), v)
				}
			case kind == "gauge":
				if v, ok := s.Gauges[name]; ok {
					fmt.Fprintf(&b, "%s%s %d\n", name, labelBlock(node), v)
				}
			case kind == "histogram":
				if h, ok := s.Histograms[name]; ok {
					writeHistogram(&b, name, node, h, openMetrics)
				}
			}
		}
	}
	if openMetrics {
		b.WriteString("# EOF\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram emits one node's histogram samples. Bucket i counts
// observations with bits.Len64(v) == i, so its cumulative upper bound
// is 2^i - 1: buckets run up to the highest non-empty one, then
// le="+Inf", _sum and _count. In OpenMetrics mode a bucket holding an
// exemplar gets the "# {trace_id=...} value timestamp" suffix.
func writeHistogram(b *strings.Builder, name, node string, h HistogramSnapshot, openMetrics bool) {
	top := 0
	for i := range h.Buckets {
		top = max(top, i)
	}
	var cum uint64
	for i := 0; i <= top; i++ {
		cum += h.Buckets[i]
		le := strconv.FormatUint(1<<uint(i)-1, 10)
		if i >= 63 {
			le = strconv.FormatFloat(math.Ldexp(1, i)-1, 'g', -1, 64)
		}
		fmt.Fprintf(b, "%s_bucket%s %d", name, labelBlock(node, "le", le), cum)
		if e, ok := h.Exemplars[i]; ok && openMetrics {
			fmt.Fprintf(b, " # {trace_id=\"%s\"} %d %.3f",
				escapeLabelValue(e.TraceID), e.Value, float64(e.UnixNano)/1e9)
		}
		b.WriteByte('\n')
	}
	labels := labelBlock(node)
	fmt.Fprintf(b, "%s_bucket%s %d\n%s_sum%s %d\n%s_count%s %d\n",
		name, labelBlock(node, "le", "+Inf"), h.Count, name, labels, h.Sum, name, labels, h.Count)
}

// labelBlock renders {k="v",...} from key/value pairs given in key
// order, with node="..." merged in at its sorted place when node is
// non-empty. No pairs and no node render as "".
func labelBlock(node string, kv ...string) string {
	var b strings.Builder
	write := func(k, v string) {
		if b.Len() == 0 {
			b.WriteByte('{')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(k + `="` + escapeLabelValue(v) + `"`)
	}
	for i := 0; i < len(kv); i += 2 {
		if node != "" && kv[i] > "node" {
			write("node", node)
			node = ""
		}
		write(kv[i], kv[i+1])
	}
	if node != "" {
		write("node", node)
	}
	if b.Len() > 0 {
		b.WriteByte('}')
	}
	return b.String()
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

// ServeExposition answers a metrics scrape with the exposition of
// nodes: OpenMetrics when the request's Accept header asks for
// application/openmetrics-text, Prometheus 0.0.4 text otherwise.
func ServeExposition(w http.ResponseWriter, r *http.Request, nodes []NodeSnapshot) error {
	openMetrics := strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text")
	contentType := "text/plain; version=0.0.4; charset=utf-8"
	if openMetrics {
		contentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"
	}
	w.Header().Set("Content-Type", contentType)
	return WriteExposition(w, nodes, openMetrics)
}
