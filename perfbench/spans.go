package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own call: name, op id, parent span, start and end, plus counts
// measured at the same boundary.
type span struct {
	name       string
	id, parent int
	op         int
	start, end time.Time
	counts     map[string]float64
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer holds a run's spans in memory; write dumps them once the run
// has ended. Safe for concurrent use (a full op's two passes record from
// two goroutines).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  int
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; parent 0 means a root span.
func (t *tracer) begin(name string, op, parent int) *span {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &span{name: name, id: id, parent: parent, op: op, start: time.Now()}
}

// finish closes s, attaches counts (may be nil), and records it.
func (t *tracer) finish(s *span, counts map[string]float64) *span {
	s.end = time.Now()
	s.counts = counts
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// write dumps the spans as Chrome trace JSON (one row per op).
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"id": s.id, "parent": s.parent, "op": s.op}
		for k, v := range s.counts {
			args[k] = v
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.op,
			Ts:   float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}

// layerSum totals a layer's span durations (ms) and each of its counts.
type layerSum struct {
	ms     float64
	counts map[string]float64
}

// byLayer groups the recorded spans by name.
func (t *tracer) byLayer() map[string]*layerSum {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]*layerSum)
	for _, s := range t.spans {
		l := out[s.name]
		if l == nil {
			l = &layerSum{counts: make(map[string]float64)}
			out[s.name] = l
		}
		l.ms += ms(s.dur())
		for k, v := range s.counts {
			l.counts[k] += v
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile returns the p-th percentile (0..100) of vs by linear
// interpolation between closest ranks; NaN for an empty slice.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	return s[lo] + (s[hi]-s[lo])*(r-float64(lo))
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// maxRSSMB reads the process's peak resident set size (VmHWM).
func maxRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
