package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// WriteChromeTraceStitched exports the tracer's spans like
// WriteChromeTrace, then grafts cross-node trace segments into the
// same timeline: each distinct segment node becomes its own Chrome
// trace process (pid 10+) named "node <addr>", with segment wall-clock
// starts converted to tracer-relative microseconds via the tracer's
// epoch. selfNode, when non-empty, names the local process (pid 1) so
// every node the job touched is identifiable in the exported tree.
// With no segments and no selfNode the output is byte-identical to
// WriteChromeTrace.
func (t *Tracer) WriteChromeTraceStitched(w io.Writer, selfNode string, segs []TraceSegment) error {
	if t == nil {
		return fmt.Errorf("obs: no tracer installed")
	}
	spans := t.Spans()
	traceID := t.TraceID()
	counters := t.Counters()
	epochNS := t.epoch.UnixNano()
	out := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	if selfNode != "" {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: 1, Tid: 0,
			Args: map[string]any{"name": "node " + selfNode},
		})
	}
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.Duration.Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  1,
		}
		if len(s.Attrs) > 0 {
			ev.Args = make(map[string]any, len(s.Attrs))
			for _, a := range s.Attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		if traceID != "" {
			if ev.Args == nil {
				ev.Args = make(map[string]any, 1)
			}
			if _, ok := ev.Args["trace_id"]; !ok {
				ev.Args["trace_id"] = traceID
			}
		}
		if selfNode != "" {
			if ev.Args == nil {
				ev.Args = make(map[string]any, 1)
			}
			if _, ok := ev.Args["node"]; !ok {
				ev.Args["node"] = selfNode
			}
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}

	// One process per segment node, sorted for deterministic output.
	byNode := make(map[string][]TraceSegment)
	for _, sg := range segs {
		byNode[sg.Node] = append(byNode[sg.Node], sg)
	}
	nodeNames := make([]string, 0, len(byNode))
	for n := range byNode {
		nodeNames = append(nodeNames, n)
	}
	sort.Strings(nodeNames)
	for i, n := range nodeNames {
		pid := 10 + i
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": "node " + n},
		})
		ns := byNode[n]
		sort.Slice(ns, func(a, b int) bool { return ns[a].StartUnixNano < ns[b].StartUnixNano })
		for _, sg := range ns {
			args := map[string]any{"node": sg.Node}
			if sg.TraceID != "" {
				args["trace_id"] = sg.TraceID
			}
			for k, v := range sg.Attrs {
				args[k] = v
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: sg.Name,
				Ph:   "X",
				Ts:   float64(sg.StartUnixNano-epochNS) / 1e3,
				Dur:  sg.DurationUS,
				Pid:  pid,
				Tid:  1,
				Args: args,
			})
		}
	}

	if len(counters) > 0 {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: 2, Tid: 0,
			Args: map[string]any{"name": "telemetry"},
		})
		for _, c := range counters {
			vals := make(map[string]any, len(c.Values))
			for k, v := range c.Values {
				vals[k] = v
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: c.Track, Ph: "C", Ts: c.TSUS, Pid: 2, Tid: 0, Args: vals,
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
