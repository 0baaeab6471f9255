package serve

import (
	"bytes"
	"encoding/json"
	"time"

	"optiwise"
	"optiwise/internal/core"
	"optiwise/internal/durable"
	"optiwise/internal/obs"
)

// This file threads the durable layer (internal/durable, DESIGN.md §13)
// through the service: every accepted execution is journaled, every
// completed full-fidelity result is persisted as a checksummed segment,
// and a restarting server replays the journal to rebuild its cache
// index, lineage histories, and regression counters and to re-enqueue
// whatever was in flight, streamed or not, to re-run from the start.

// journalSubmit is the submit record's payload: everything needed to
// reconstruct and re-enqueue the execution after a restart, the
// program image included, so making a submission durable is one
// journal append.
type journalSubmit struct {
	Module    string           `json:"module"`
	Image     []byte           `json:"image,omitempty"` // the program's OWX encoding
	Machine   optiwise.Machine `json:"machine"`
	TraceID   string           `json:"trace_id,omitempty"`
	Lineage   string           `json:"lineage,omitempty"`
	TimeoutMS int64            `json:"timeout_ms"`

	SamplePeriod          uint64  `json:"sample_period,omitempty"`
	InterruptCost         uint64  `json:"interrupt_cost,omitempty"`
	Precise               bool    `json:"precise,omitempty"`
	SampleJitter          bool    `json:"jitter,omitempty"`
	DisableStackProfiling bool    `json:"no_stack,omitempty"`
	Attribution           int     `json:"attribution,omitempty"`
	Unweighted            bool    `json:"unweighted,omitempty"`
	LoopThreshold         uint64  `json:"loop_threshold,omitempty"`
	SampleASLRSeed        int64   `json:"sample_aslr_seed,omitempty"`
	InstrASLRSeed         int64   `json:"instr_aslr_seed,omitempty"`
	RandSeed              uint64  `json:"rand_seed,omitempty"`
	MaxCycles             uint64  `json:"max_cycles,omitempty"`
	Window                uint64  `json:"telemetry_window,omitempty"`
	Tiered                bool    `json:"tiered,omitempty"`
	HotThreshold          float64 `json:"hot_threshold,omitempty"`
	AllowDegraded         bool    `json:"allow_degraded,omitempty"`
}

// newJournalSubmit captures a program image and its canonicalized
// options (plus the submission attributes outside the content address)
// into a journal payload.
func newJournalSubmit(module string, image []byte, opts optiwise.Options, sub Submission, timeout time.Duration) journalSubmit {
	return journalSubmit{
		Module:    module,
		Image:     image,
		Machine:   opts.Machine,
		TraceID:   sub.TraceID,
		Lineage:   sub.Lineage,
		TimeoutMS: timeout.Milliseconds(),

		SamplePeriod:          opts.SamplePeriod,
		InterruptCost:         opts.InterruptCost,
		Precise:               opts.Precise,
		SampleJitter:          opts.SampleJitter,
		DisableStackProfiling: opts.DisableStackProfiling,
		Attribution:           int(opts.Attribution),
		Unweighted:            opts.Unweighted,
		LoopThreshold:         opts.LoopThreshold,
		SampleASLRSeed:        opts.SampleASLRSeed,
		InstrASLRSeed:         opts.InstrASLRSeed,
		RandSeed:              opts.RandSeed,
		MaxCycles:             opts.MaxCycles,
		Window:                opts.Window,
		Tiered:                opts.Tiered,
		HotThreshold:          opts.HotThreshold,
		AllowDegraded:         opts.AllowDegraded,
	}
}

// toOptions rebuilds the profiling options a replayed submission runs
// under.
func (js journalSubmit) toOptions() optiwise.Options {
	return optiwise.Options{
		Machine:               js.Machine,
		SamplePeriod:          js.SamplePeriod,
		InterruptCost:         js.InterruptCost,
		Precise:               js.Precise,
		SampleJitter:          js.SampleJitter,
		DisableStackProfiling: js.DisableStackProfiling,
		Attribution:           optiwise.Attribution(js.Attribution),
		Unweighted:            js.Unweighted,
		LoopThreshold:         js.LoopThreshold,
		SampleASLRSeed:        js.SampleASLRSeed,
		InstrASLRSeed:         js.InstrASLRSeed,
		RandSeed:              js.RandSeed,
		MaxCycles:             js.MaxCycles,
		Window:                js.Window,
		Tiered:                js.Tiered,
		HotThreshold:          js.HotThreshold,
		AllowDegraded:         js.AllowDegraded,
	}
}

// journalComplete is the complete record's payload: the listing
// metadata every lineage the execution recorded into needs, so replay
// can rebuild lineage histories (the exports come from the result
// segment) and /v1/stats summaries stay continuous.
type journalComplete struct {
	Lineages     []string `json:"lineages,omitempty"`
	JobID        string   `json:"job_id,omitempty"`
	TraceID      string   `json:"trace_id,omitempty"`
	Module       string   `json:"module,omitempty"`
	Cycles       uint64   `json:"cycles,omitempty"`
	IPC          float64  `json:"ipc,omitempty"`
	SeenUnixNano int64    `json:"seen,omitempty"`
}

// journalFail is the fail record's payload.
type journalFail struct {
	Error string `json:"error,omitempty"`
}

// appendJournal writes one record to the job journal, when durability
// is on. Journal failures degrade durability, not availability: the
// in-memory execution proceeds, the loss is logged and visible at the
// durable.append/fsync fault seams the chaos suite drives.
func (s *Server) appendJournal(typ, jobID, key string, data any) {
	if s.store == nil {
		return
	}
	var raw json.RawMessage
	if data != nil {
		b, err := json.Marshal(data)
		if err != nil {
			obs.Warn("serve: journal payload encode failed", obs.F("type", typ), obs.F("err", err.Error()))
			return
		}
		raw = b
	}
	if err := s.store.Journal().Append(durable.Record{Type: typ, Job: jobID, Key: key, Data: raw}); err != nil {
		obs.Warn("serve: journal append failed",
			obs.F("type", typ), obs.F("digest", shortDigest(key)), obs.F("err", err.Error()))
	}
}

// persistSubmission makes an accepted leader submission durable with
// one journal append: the submit record, program image included. Called
// after the queue accepted the execution, so a crash in between loses
// only a job the client never saw accepted. The worker may already be
// running the passes; it waits on g.ready before it journals or admits
// anything (see group.ready).
func (s *Server) persistSubmission(g *group, leader *Job, sub Submission, timeout time.Duration) {
	if g.ready != nil {
		defer close(g.ready) // release the worker even if persisting fails
	}
	if s.store == nil {
		return
	}
	image, err := g.prog.Binary()
	if err != nil {
		obs.Warn("serve: persist program failed", obs.F("digest", shortDigest(g.key)), obs.F("err", err.Error()))
		return
	}
	js := newJournalSubmit(g.prog.Module(), image, g.opts, sub, timeout)
	s.appendJournal(durable.RecSubmit, leader.ID, g.key, js)
}

// persistCompleted finishes making a completed result durable once
// putResult wrote its segment: the journal's complete record follows the
// segment, so it never points at a missing one; and the payload is
// pushed to the ring tier.
// members are the jobs that observed the outcome; their lineage keys
// ride on the complete record so replay rebuilds the histories.
func (s *Server) persistCompleted(g *group, res *optiwise.Result, w wire, members []*Job) {
	exp := res.Export()
	jc := journalComplete{Module: g.prog.Module(), Cycles: exp.TotalCycles, IPC: exp.IPC,
		SeenUnixNano: time.Now().UnixNano()}
	for _, j := range members {
		if j.lineage != "" {
			jc.Lineages = append(jc.Lineages, j.lineage)
			if jc.JobID == "" {
				jc.JobID, jc.TraceID = j.ID, j.TraceID
			}
		}
	}
	s.appendJournal(durable.RecComplete, jc.JobID, g.key, jc)
	if s.ring != nil {
		go s.ring.Push(g.key, w.payload, w.sum, g.traceID)
	}
}

// journalLineageHit journals the lineage version a cache-served job
// recorded, so histories that grew without an execution still survive
// a restart. Keys without a lineage need nothing: the cached result's
// durability was settled when it completed.
func (s *Server) journalLineageHit(j *Job, res *optiwise.Result) {
	if s.store == nil || j.lineage == "" || res == nil || res.Degraded {
		return
	}
	exp := res.Export()
	s.appendJournal(durable.RecComplete, j.ID, j.Digest, journalComplete{
		Lineages: []string{j.lineage}, JobID: j.ID, TraceID: j.TraceID,
		Module: j.Module, Cycles: exp.TotalCycles, IPC: exp.IPC,
		SeenUnixNano: time.Now().UnixNano(),
	})
}

// pendingReplay is one incomplete execution recovered from the
// journal, waiting for Start to re-enqueue it.
type pendingReplay struct {
	key    string
	submit journalSubmit
}

// replayJournal interprets the replay summary: the last record per key
// decides whether its execution is terminal or must be re-enqueued from
// its submit record; complete records rebuild lineage histories from
// result segments;
// regress records restore the regression counter. Corrupt or missing
// segments are skipped with a warning — replay never lets an
// unverified byte into live state.
func (s *Server) replayJournal(sum *durable.ReplaySummary) {
	if sum.Truncated > 0 {
		s.metrics.recordsTruncated.Add(uint64(sum.Truncated))
		obs.Warn("serve: journal records truncated at replay", obs.F("count", sum.Truncated))
	}
	s.metrics.journalReplays.Add(uint64(sum.Segments))

	type keyState struct {
		lastType  string
		submit    *journalSubmit
		completed bool
	}
	states := make(map[string]*keyState)
	exports := make(map[string]*core.Export) // decoded result segments, by key
	loadExport := func(key string) *core.Export {
		if exp, ok := exports[key]; ok {
			return exp
		}
		var exp *core.Export
		if payload, err := s.store.ReadResult(key); err == nil {
			var w WireResult
			if err := w.UnmarshalBinary(payload); err == nil {
				exp = w.Export
			}
		}
		exports[key] = exp
		return exp
	}

	for _, rec := range sum.Records {
		if rec.Key == "" {
			continue
		}
		st := states[rec.Key]
		if st == nil {
			st = &keyState{}
			states[rec.Key] = st
		}
		st.lastType = rec.Type
		switch rec.Type {
		case durable.RecSubmit:
			// A key that ever completed is terminal forever: its result is
			// content-addressed and durable, so re-enqueueing could only
			// duplicate side effects (lineage versions). A submit after a
			// complete is a record-ordering straggler, not lost work.
			if st.completed {
				continue
			}
			var js journalSubmit
			if err := json.Unmarshal(rec.Data, &js); err != nil {
				obs.Warn("serve: replay: bad submit record", obs.F("digest", shortDigest(rec.Key)), obs.F("err", err.Error()))
				st.submit = nil
				continue
			}
			st.submit = &js
		case durable.RecComplete:
			// A completed key never re-runs (below), so its image is dead
			// weight for the rest of the replay.
			st.completed, st.submit = true, nil
			var jc journalComplete
			if len(rec.Data) > 0 {
				if err := json.Unmarshal(rec.Data, &jc); err != nil {
					obs.Warn("serve: replay: bad complete record", obs.F("digest", shortDigest(rec.Key)), obs.F("err", err.Error()))
					continue
				}
			}
			if len(jc.Lineages) == 0 {
				continue
			}
			exp := loadExport(rec.Key)
			if exp == nil {
				obs.Warn("serve: replay: result segment missing or corrupt, lineage version skipped",
					obs.F("digest", shortDigest(rec.Key)))
				continue
			}
			seen := time.Unix(0, jc.SeenUnixNano)
			for _, lin := range jc.Lineages {
				s.lineages.record(lin, lineageVersion{
					Digest:  rec.Key,
					Module:  jc.Module,
					JobID:   jc.JobID,
					TraceID: jc.TraceID,
					Seen:    seen,
					Cycles:  jc.Cycles,
					IPC:     jc.IPC,
					export:  exp,
				})
			}
		case durable.RecRegress:
			s.metrics.regressions.Inc()
		}
	}

	for key, st := range states {
		// Any last record but a terminal one (submit, retry, or the start
		// record earlier versions wrote) leaves the execution in flight.
		// A completed key has no submit left to re-enqueue.
		switch st.lastType {
		case durable.RecComplete, durable.RecFail, durable.RecCancel, durable.RecRegress:
			continue
		}
		if st.submit != nil {
			s.pending = append(s.pending, pendingReplay{key: key, submit: *st.submit})
		}
	}
}

// resubmitPending re-enqueues the executions the journal proved
// incomplete. Runs once, from Start, after the workers are up. A full
// queue drops the remainder with a warning — the journal still holds
// their submit records, so the next restart retries, and clients
// polling the old job IDs resubmit through the normal path.
func (s *Server) resubmitPending() {
	pending := s.pending
	s.pending = nil
	for _, p := range pending {
		if len(p.submit.Image) == 0 {
			// A submit record written before images rode in the journal:
			// its program lived in a programs/ segment no longer read.
			obs.Warn("serve: replay: program segment unreadable, job dropped",
				obs.F("digest", shortDigest(p.key)), obs.F("err", "submit record carries no program image"))
			continue
		}
		prog, err := optiwise.ReadBinary(bytes.NewReader(p.submit.Image))
		if err != nil {
			obs.Warn("serve: replay: program segment invalid, job dropped",
				obs.F("digest", shortDigest(p.key)), obs.F("err", err.Error()))
			continue
		}
		_, err = s.SubmitWith(prog, p.submit.toOptions(), Submission{
			Timeout: time.Duration(p.submit.TimeoutMS) * time.Millisecond,
			TraceID: p.submit.TraceID,
			Lineage: p.submit.Lineage,
		})
		if err != nil {
			obs.Warn("serve: replay: re-enqueue failed",
				obs.F("digest", shortDigest(p.key)), obs.F("err", err.Error()))
			continue
		}
		obs.Info("serve: replayed incomplete job re-enqueued",
			obs.F("digest", shortDigest(p.key)), obs.F("module", p.submit.Module))
	}
}

// Durable reports whether the server persists to a data dir.
func (s *Server) Durable() bool { return s.store != nil }
