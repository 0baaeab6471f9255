package serve

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"optiwise"
	"optiwise/internal/obs"
)

// State is a job's lifecycle position.
type State string

// Job states. Queued covers both waiting-in-queue and
// coalesced-onto-an-identical-in-flight-job; Running means a worker is
// simulating; the other three are terminal.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is one submission's view of a profiling execution. Several jobs
// with identical content share one execution (see group).
type Job struct {
	ID      string
	Digest  string
	Module  string
	Machine string
	// TraceID is the job's distributed-trace identity: either the ID the
	// client propagated in its traceparent header, or one minted at
	// submission. It is stamped on every span, warning log line, flight
	// record, and latency exemplar the execution produces, and returned
	// in the job status so clients can correlate.
	TraceID string

	mu          sync.Mutex
	state       State
	errMsg      string
	result      *optiwise.Result
	cached      bool
	coalesced   bool
	peerFetched bool
	lineage     string
	retries     int
	submitted   time.Time
	started     time.Time
	finished    time.Time
	timer       *time.Timer
	group       *group
	tracer      *obs.Tracer
	done        chan struct{}
}

// JobStatus is an immutable snapshot of a Job, shaped for the JSON API.
type JobStatus struct {
	ID        string `json:"id"`
	State     State  `json:"state"`
	Error     string `json:"error,omitempty"`
	Cached    bool   `json:"cached,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	// PeerFetched marks a result satisfied from a sibling cluster node's
	// cache instead of a local simulation (DESIGN.md §11).
	PeerFetched bool `json:"peer_fetched,omitempty"`
	// Lineage is the client-chosen profile-lineage key the job's result
	// was recorded under (see Submission.Lineage).
	Lineage string `json:"lineage,omitempty"`
	// Retries counts the transient-failure re-executions the job's
	// group needed before its final outcome.
	Retries int `json:"retries,omitempty"`
	// TraceID is the job's distributed-trace identity (see Job.TraceID).
	TraceID string `json:"trace_id,omitempty"`
	// Degraded marks a single-pass result (Options.AllowDegraded):
	// FailedPass names the pass whose data is missing.
	Degraded   bool       `json:"degraded,omitempty"`
	FailedPass string     `json:"failed_pass,omitempty"`
	Module     string     `json:"module"`
	Machine    string     `json:"machine"`
	Digest     string     `json:"digest"`
	Submitted  time.Time  `json:"submitted"`
	Started    *time.Time `json:"started,omitempty"`
	Finished   *time.Time `json:"finished,omitempty"`
	DurationMS int64      `json:"duration_ms,omitempty"`
}

func newJob(digest, module, machine, traceID string) *Job {
	if traceID == "" {
		traceID = obs.NewTraceID()
	}
	return &Job{
		ID:        newJobID(),
		Digest:    digest,
		Module:    module,
		Machine:   machine,
		TraceID:   traceID,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
}

// newJobID returns a 16-hex-char random job identifier.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to a
		// time-derived id rather than crashing the service.
		return fmt.Sprintf("j%015x", time.Now().UnixNano())
	}
	return "j" + hex.EncodeToString(b[:])
}

// Status returns a consistent snapshot.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.ID,
		State:       j.state,
		Error:       j.errMsg,
		Cached:      j.cached,
		Coalesced:   j.coalesced,
		PeerFetched: j.peerFetched,
		Lineage:     j.lineage,
		Module:      j.Module,
		Machine:     j.Machine,
		Digest:      j.Digest,
		Retries:     j.retries,
		TraceID:     j.TraceID,
		Submitted:   j.submitted,
	}
	if j.result != nil && j.result.Degraded {
		st.Degraded = true
		st.FailedPass = j.result.FailedPass
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
		st.DurationMS = j.finished.Sub(j.submitted).Milliseconds()
	}
	return st
}

// Result returns the combined profile once the job is done.
func (j *Job) Result() (*optiwise.Result, State, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state, j.errMsg
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// setTracer attaches the execution's per-job tracer; idempotent.
func (j *Job) setTracer(tr *obs.Tracer) {
	j.mu.Lock()
	j.tracer = tr
	j.mu.Unlock()
}

// WriteTrace exports the job's span tree (and any interval-telemetry
// counter tracks) as Chrome trace-event JSON, loadable in
// chrome://tracing and ui.perfetto.dev. selfNode names the local
// process in the export and segs are the trace segments other nodes (or
// post-execution local cluster paths) recorded for the job's trace ID,
// grafted onto the tracer's timeline as per-node processes (see
// obs.Tracer.WriteChromeTrace). The trace belongs to the execution that
// produced (or is producing) the job's result; jobs served straight
// from the result cache never executed, so they carry no trace.
func (j *Job) WriteTrace(w io.Writer, selfNode string, segs []obs.TraceSegment) error {
	j.mu.Lock()
	tr := j.tracer
	cached := j.cached
	j.mu.Unlock()
	if tr == nil {
		if cached {
			return errors.New("serve: no trace recorded: result served from cache without executing")
		}
		return errors.New("serve: no trace recorded yet: execution has not started")
	}
	return tr.WriteChromeTrace(w, selfNode, segs)
}

// StreamSnapshot returns the live windowed-profiling view of the job's
// execution: per-window sampling and instrumentation summaries plus the
// running totals so far (see optiwise.StreamSnapshot). Like
// the trace export, the windows belong to the execution producing the
// result: jobs served from the result cache never executed and carry
// none, and jobs submitted without a window (options.stream_window, a
// part of the job's content address) answer with a descriptive error.
func (j *Job) StreamSnapshot() (*optiwise.StreamSnapshot, error) {
	j.mu.Lock()
	g := j.group
	cached := j.cached
	j.mu.Unlock()
	if g == nil {
		if cached {
			return nil, errors.New("serve: no profile windows: result served from cache without executing")
		}
		return nil, errors.New("serve: no profile windows recorded for this job")
	}
	if g.opts.Window == 0 {
		return nil, errors.New("serve: windowed streaming was not requested for this execution (submit with options.stream_window)")
	}
	comb := g.combiner()
	if comb == nil {
		return nil, errors.New("serve: no profile windows yet: execution has not started")
	}
	snap := comb.Snapshot()
	return &snap, nil
}

// markRunning transitions queued → running (no-op otherwise).
func (j *Job) markRunning(at time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateQueued {
		j.state = StateRunning
		j.started = at
	}
}

// finish completes the job with a result or error. It is a no-op when
// the job already reached a terminal state (e.g. its deadline fired
// first). Reports whether this call performed the transition.
func (j *Job) finish(res *optiwise.Result, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	if errMsg != "" {
		j.state = StateFailed
		j.errMsg = errMsg
	} else {
		j.state = StateDone
		j.result = res
	}
	j.finished = time.Now()
	j.stopTimerLocked()
	close(j.done)
	return true
}

// terminate moves the job to a terminal failure/cancel state and
// detaches it from its execution group; used by deadline expiry and
// client cancellation. Reports whether this call performed the
// transition.
func (j *Job) terminate(state State, errMsg string) bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.errMsg = errMsg
	j.finished = time.Now()
	j.stopTimerLocked()
	g := j.group
	close(j.done)
	j.mu.Unlock()
	if g != nil {
		g.remove(j)
	}
	return true
}

// markPeerFetched flags the job's result as fetched from a sibling
// node's cache.
func (j *Job) markPeerFetched() {
	j.mu.Lock()
	j.peerFetched = true
	j.mu.Unlock()
}

// setRetries records how many transient-failure re-executions the
// job's group needed.
func (j *Job) setRetries(n int) {
	if n == 0 {
		return
	}
	j.mu.Lock()
	j.retries = n
	j.mu.Unlock()
}

func (j *Job) stopTimerLocked() {
	if j.timer != nil {
		j.timer.Stop()
		j.timer = nil
	}
}

// armDeadline starts the job's deadline clock: when d elapses before
// the job completes, it fails with a deadline error and — if it was the
// last member of its execution group — cancels the underlying
// simulation, freeing the worker. onExpire (optional) runs only when
// the expiry actually terminated the job, so the caller can count it.
func (j *Job) armDeadline(d time.Duration, onExpire func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.timer = time.AfterFunc(d, func() {
		if j.terminate(StateFailed,
			fmt.Sprintf("deadline exceeded after %s", d)) && onExpire != nil {
			onExpire()
		}
	})
}

// group is one deduplicated execution shared by all jobs whose
// (program, machine, options) digest matches. The first submission
// becomes the leader and occupies a queue slot; identical submissions
// arriving while it is queued or running coalesce onto it.
type group struct {
	key  string
	prog *optiwise.Program
	opts optiwise.Options
	// traceID is the execution's trace identity: the leader's. Coalesced
	// members keep their own submitted IDs in their status, but the spans
	// of the single shared execution are stamped with the leader's.
	traceID string
	// ready, when non-nil, gates execution on the submission's journal
	// record being durable: the submitter closes it after
	// persistSubmission, and the worker waits before journaling start.
	// Without the gate a fast worker can land the start (or even the
	// complete) record before the submit record, and replay would
	// misread the trailing submit as an incomplete execution. Nil on
	// non-durable servers.
	ready chan struct{}

	mu       sync.Mutex
	members  []*Job
	running  bool
	finished bool
	cancel   func()      // set once a worker starts the execution
	tracer   *obs.Tracer // set once a worker starts the execution
	// comb summarizes the execution's stream windows; replaced
	// wholesale on each retry attempt so a half-streamed failed attempt
	// never double-counts into the next one.
	comb *optiwise.StreamCombiner
}

func newGroup(key string, prog *optiwise.Program, opts optiwise.Options, leader *Job) *group {
	g := &group{key: key, prog: prog, opts: opts,
		traceID: leader.TraceID, members: []*Job{leader}}
	leader.setGroup(g)
	return g
}

// setCombiner installs the current execution attempt's stream combiner.
func (g *group) setCombiner(c *optiwise.StreamCombiner) {
	g.mu.Lock()
	g.comb = c
	g.mu.Unlock()
}

// combiner returns the current attempt's stream combiner (nil before the
// first streaming execution starts).
func (g *group) combiner() *optiwise.StreamCombiner {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.comb
}

// add coalesces j onto the in-flight execution. It reports false when
// the group already finished (the caller should then retry via the
// result cache).
func (g *group) add(j *Job) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.finished {
		return false
	}
	g.members = append(g.members, j)
	j.setGroup(g)
	if g.tracer != nil {
		j.setTracer(g.tracer)
	}
	if g.running {
		j.markRunning(time.Now())
	}
	return true
}

// setTracer records the execution's tracer and fans it out to the
// current members so their /trace endpoint works as soon as the
// execution starts.
func (g *group) setTracer(tr *obs.Tracer) {
	g.mu.Lock()
	g.tracer = tr
	members := append([]*Job(nil), g.members...)
	g.mu.Unlock()
	for _, j := range members {
		j.setTracer(tr)
	}
}

func (j *Job) setGroup(g *group) {
	j.mu.Lock()
	j.group = g
	j.mu.Unlock()
}

// remove detaches a terminated member. When the last member leaves a
// group whose execution already started, the simulation is canceled so
// the worker frees up immediately.
func (g *group) remove(j *Job) {
	g.mu.Lock()
	for i, m := range g.members {
		if m == j {
			g.members = append(g.members[:i], g.members[i+1:]...)
			break
		}
	}
	empty := len(g.members) == 0 && !g.finished
	cancel := g.cancel
	g.mu.Unlock()
	if empty && cancel != nil {
		cancel()
	}
}

// begin marks the group running under cancel. It reports false when
// every member already expired, in which case the worker skips the
// simulation entirely.
func (g *group) begin(cancel func()) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.members) == 0 {
		g.finished = true
		return false
	}
	g.running = true
	g.cancel = cancel
	now := time.Now()
	for _, m := range g.members {
		m.markRunning(now)
	}
	return true
}

// end closes the group and returns the members awaiting the outcome.
func (g *group) end() []*Job {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.finished = true
	members := g.members
	g.members = nil
	return members
}

// jobKey computes the content address of one profiling execution:
// SHA-256 over the serialized program image, the simulated machine, and
// the canonicalized options. Options must already be canonical (see
// optiwise.Options.Canonical) so that default-equivalent submissions
// collide.
func jobKey(prog *optiwise.Program, opts optiwise.Options) (string, error) {
	h := sha256.New()
	if err := prog.WriteBinary(h); err != nil {
		return "", fmt.Errorf("serve: hash program: %w", err)
	}
	// The machine config is a flat value struct (no maps), so %#v is a
	// stable canonical encoding of every field, including the cache
	// geometry.
	fmt.Fprintf(h, "|machine=%#v", opts.Machine)
	// The window is written under its older name, telemetry, so keys
	// of results already on disk stay valid.
	fmt.Fprintf(h,
		"|period=%d|intcost=%d|precise=%t|jitter=%t|nostack=%t|attr=%d|unweighted=%t|T=%d|saslr=%d|iaslr=%d|seed=%d|maxcycles=%d|telemetry=%d|tiered=%t|hotthr=%g",
		opts.SamplePeriod, opts.InterruptCost, opts.Precise, opts.SampleJitter,
		opts.DisableStackProfiling, opts.Attribution, opts.Unweighted,
		opts.LoopThreshold, opts.SampleASLRSeed, opts.InstrASLRSeed,
		opts.RandSeed, opts.MaxCycles, opts.Window,
		opts.Tiered, opts.HotThreshold)
	return hex.EncodeToString(h.Sum(nil)), nil
}
