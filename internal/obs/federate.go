package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Federated exposition: one text rendering of many nodes' registry
// snapshots, every sample tagged with a node label so a single scrape
// of any cluster member answers "what is the whole cluster doing?".
// The renderer enforces the same grammar rules as the single-registry
// exposition — one HELP/TYPE pair per family, families sorted and
// unique, label values escaped — with samples grouped per node inside
// each family.

// NodeSnapshot is one node's registry snapshot as held by the
// federation layer: the node's advertised address, whether the
// snapshot is a stale last-known copy (the peer could not be reached
// within the staleness budget), and when it was fetched.
type NodeSnapshot struct {
	Node            string           `json:"node"`
	Stale           bool             `json:"stale"`
	FetchedUnixNano int64            `json:"fetched_unix_nano,omitempty"`
	Snapshot        RegistrySnapshot `json:"snapshot"`
}

// fedKind resolves one family name to a kind across all nodes. On a
// cross-node kind collision (the same name registered as different
// metric types on different nodes — possible across binary versions)
// the lexically smallest kind wins and mismatched samples are dropped,
// keeping the merged exposition parseable instead of failing the whole
// scrape.
func fedKind(nodes []NodeSnapshot, name string) string {
	kind := ""
	take := func(k string) {
		if kind == "" || k < kind {
			kind = k
		}
	}
	for i := range nodes {
		s := &nodes[i].Snapshot
		if _, ok := s.Counters[name]; ok {
			take("counter")
		}
		if _, ok := s.Gauges[name]; ok {
			take("gauge")
		}
		if _, ok := s.Histograms[name]; ok {
			take("histogram")
		}
	}
	return kind
}

// WriteFederated renders the merged, node-labeled exposition of the
// given snapshots in Prometheus 0.0.4 text format (or OpenMetrics when
// openMetrics is set, which appends the mandatory "# EOF"). An
// optiwise_node_up family reports 1 for fresh snapshots and 0 for
// stale last-known copies. Nodes are rendered in sorted order; a node
// appearing twice is an error.
func WriteFederated(w io.Writer, nodes []NodeSnapshot, openMetrics bool) error {
	sorted := make([]NodeSnapshot, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Node < sorted[j].Node })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Node == sorted[i-1].Node {
			return fmt.Errorf("obs: duplicate node %q in federated snapshot", sorted[i].Node)
		}
	}

	// Union of family names across all nodes, plus the synthetic
	// liveness/info families.
	names := map[string]bool{MNodeUp: true}
	haveBuild, haveUptime := false, false
	for i := range sorted {
		s := &sorted[i].Snapshot
		for n := range s.Counters {
			names[n] = true
		}
		for n := range s.Gauges {
			names[n] = true
		}
		for n := range s.Histograms {
			names[n] = true
		}
		if s.Build != nil {
			haveBuild, haveUptime = true, true
		}
	}
	if haveBuild {
		names[MBuildInfo] = true
	}
	if haveUptime {
		names[MUptimeSeconds] = true
	}
	fams := make([]string, 0, len(names))
	for n := range names {
		fams = append(fams, n)
	}
	sort.Strings(fams)

	for _, name := range fams {
		kind, write := federatedFamily(sorted, name)
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			name, escapeHelp(helpFor(name)), name, kind); err != nil {
			return err
		}
		if err := write(w); err != nil {
			return err
		}
	}
	if openMetrics {
		if _, err := io.WriteString(w, "# EOF\n"); err != nil {
			return err
		}
	}
	return nil
}

// federatedFamily returns the kind and sample writer for one family
// name across all nodes (pre-sorted, unique).
func federatedFamily(nodes []NodeSnapshot, name string) (string, func(io.Writer) error) {
	switch name {
	case MNodeUp:
		return "gauge", func(w io.Writer) error {
			for i := range nodes {
				up := 1
				if nodes[i].Stale {
					up = 0
				}
				if _, err := fmt.Fprintf(w, "%s{node=\"%s\"} %d\n",
					name, escapeLabelValue(nodes[i].Node), up); err != nil {
					return err
				}
			}
			return nil
		}
	case MBuildInfo:
		return "gauge", func(w io.Writer) error {
			for i := range nodes {
				bi := nodes[i].Snapshot.Build
				if bi == nil {
					continue
				}
				if _, err := fmt.Fprintf(w, "%s{commit=\"%s\",go_version=\"%s\",node=\"%s\",version=\"%s\"} 1\n",
					name, escapeLabelValue(bi.Commit), escapeLabelValue(bi.GoVersion),
					escapeLabelValue(nodes[i].Node), escapeLabelValue(bi.Version)); err != nil {
					return err
				}
			}
			return nil
		}
	case MUptimeSeconds:
		return "gauge", func(w io.Writer) error {
			for i := range nodes {
				if nodes[i].Snapshot.Build == nil {
					continue
				}
				if _, err := fmt.Fprintf(w, "%s{node=\"%s\"} %d\n",
					name, escapeLabelValue(nodes[i].Node), int64(nodes[i].Snapshot.UptimeSeconds)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	kind := fedKind(nodes, name)
	return kind, func(w io.Writer) error {
		for i := range nodes {
			node := escapeLabelValue(nodes[i].Node)
			s := &nodes[i].Snapshot
			switch kind {
			case "counter":
				v, ok := s.Counters[name]
				if !ok {
					continue
				}
				if _, err := fmt.Fprintf(w, "%s{node=\"%s\"} %d\n", name, node, v); err != nil {
					return err
				}
			case "gauge":
				v, ok := s.Gauges[name]
				if !ok {
					continue
				}
				if _, err := fmt.Fprintf(w, "%s{node=\"%s\"} %d\n", name, node, v); err != nil {
					return err
				}
			case "histogram":
				h, ok := s.Histograms[name]
				if !ok {
					continue
				}
				if err := writeFederatedHistogram(w, name, node, h); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// writeFederatedHistogram re-renders one node's sparse log₂ buckets as
// cumulative le buckets, mirroring writePromHistogram's bounds.
func writeFederatedHistogram(w io.Writer, name, node string, h HistogramSnapshot) error {
	top := 0
	for i := range h.Buckets {
		if i > top {
			top = i
		}
	}
	var cum uint64
	for i := 0; i <= top; i++ {
		cum += h.Buckets[i]
		var le string
		if i < 63 {
			le = strconv.FormatUint(1<<uint(i)-1, 10)
		} else {
			le = strconv.FormatFloat(pow2(i)-1, 'g', -1, 64)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\",node=\"%s\"} %d\n", name, le, node, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\",node=\"%s\"} %d\n", name, node, h.Count); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum{node=\"%s\"} %d\n%s_count{node=\"%s\"} %d\n",
		name, node, h.Sum, name, node, h.Count)
	return err
}
