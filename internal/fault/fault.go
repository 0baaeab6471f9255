// Package fault is a deterministic, seeded fault-injection registry.
//
// OptiWISE results need *two* independent profiles (sampling and DBI
// instrumentation), which doubles the production failure surface:
// either pass can fail, hang, panic, or hand back a corrupt profile.
// The serve stack must therefore fail *partially*, not totally — and
// the only way to trust that property is to exercise it continuously.
// This package provides named injection sites threaded through every
// seam of the pipeline (run loops, profile serialization, the serve
// cache and workers, report rendering) so a chaos harness can schedule
// reproducible failures against the real code paths.
//
// # Always compiled in, free when off
//
// Like the obs layer, call sites are unconditional in the source but
// gate on a single atomic pointer load at run time: when no Plan is
// installed, Enabled() is false, Err() returns nil, and Bytes()
// returns its input unchanged. Hot loops hoist Enabled() once per run
// and fold the check into their existing cancellation-poll countdown
// branch, so the disabled path costs nothing measurable (the CI
// "disabled-path assertion" step holds BenchmarkErrDisabled to 0
// allocs/op and at most 25 ns/op).
//
// # Determinism
//
// Every rule owns an independent splitmix64 stream seeded from the
// plan seed XOR a hash of its site name and rule index, plus its own
// call/fire counters. Two runs of the same workload against the same
// spec therefore fire identically, per site, regardless of how other
// sites interleave — which is what makes the chaos suite's
// replay-determinism assertion possible.
//
// # Spec grammar
//
//	spec  = clause *( ";" clause )
//	clause = "seed=" N | site ":" action [ ":" params ]
//	params = param *( "," param )
//	action = "error" | "panic" | "latency" | "corrupt"
//	param  = "p=" float        probability per call
//	       | "nth=" N          fire only on the Nth call (1-based)
//	       | "every=" N        fire every Nth call
//	       | "after=" N        skip the first N calls
//	       | "count=" N        stop after N fires
//	       | "msg=" text       error/panic message
//	       | "d=" duration     latency to inject (latency action)
//	       | "n=" N            bytes to flip (corrupt action)
//	       | "perm"            classify the error as permanent
//
// Example:
//
//	seed=42;dbi.run:error:p=0.3;sampler.write:corrupt:n=4,nth=2
//
// With no trigger param the rule fires on every call. Errors are
// transient by default (retryable by the serve layer) unless marked
// perm.
package fault

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"optiwise/internal/obs"
)

// Canonical site names. Keeping them in one place documents the full
// injection surface and guards against typos in specs and tests.
const (
	SiteOOORun       = "ooo.run"       // sampling simulator cycle loop
	SiteInterpRun    = "interp.run"    // functional interpreter step loop
	SiteDBIRun       = "dbi.run"       // DBI engine block loop
	SiteSamplerWrite = "sampler.write" // sample-profile serialization
	SiteSamplerRead  = "sampler.read"  // sample-profile deserialization
	SiteDBIWrite     = "dbi.write"     // edge-profile serialization
	SiteDBIRead      = "dbi.read"      // edge-profile deserialization
	SiteCacheGet     = "serve.cache.get"
	SiteCachePut     = "serve.cache.put"
	SiteWorker       = "serve.worker" // worker job execution
	SiteReport       = "report.render"
	SiteCombine      = "core.combine"
	// SiteTieredSelect sits between the sampling pass and the selective
	// DBI pass of a tiered run (DESIGN.md §12): the seam where the
	// hotness selection is derived from the sampling profile. A fault
	// here models a tiered pipeline that sampled successfully but could
	// not start its instrumentation stage.
	SiteTieredSelect = "tiered.select"

	// Cluster seams (internal/cluster): the multi-node layer's network
	// surface. Error rules on probe model a network partition (the node
	// looks dead to its peers); error/latency rules on forward and
	// peer-fetch model lossy or slow links between frontends and
	// workers; corrupt rules on peer-fetch flip bytes of the fetched
	// result payload, which the checksum must catch before the payload
	// can poison a local cache.
	SiteClusterProbe     = "cluster.probe"      // membership health probes
	SiteClusterForward   = "cluster.forward"    // submission forwarding to the key owner
	SiteClusterPeerFetch = "cluster.peer.fetch" // result fetch from a sibling's cache

	// Durability seams (internal/durable): the crash-safety surface.
	// Error rules on append/fsync model a full disk or dying device at
	// the exact moment a journal record or checkpoint must become
	// durable; corrupt rules on append flip bytes of the framed record
	// before it reaches the file, which replay's CRC check must catch.
	// Error rules on replay model unreadable segments at restart.
	// Error/latency rules on replicate model a lossy or slow link while
	// a completed result is copied to its ring successor.
	SiteDurableAppend    = "durable.append"    // journal record append
	SiteDurableFsync     = "durable.fsync"     // journal/segment fsync
	SiteDurableReplay    = "durable.replay"    // journal replay at restart
	SiteClusterReplicate = "cluster.replicate" // result replication to ring successor
)

// EnvVar names the environment variable consulted by ActivateFromEnv.
const EnvVar = "OPTIWISE_FAULT"

// Error is the typed failure produced by an error-action rule.
// Transient errors are fair game for the serve layer's retry policy;
// permanent ones fail the job immediately.
type Error struct {
	Site      string
	Msg       string
	Transient bool
}

func (e *Error) Error() string {
	kind := "transient"
	if !e.Transient {
		kind = "permanent"
	}
	return fmt.Sprintf("fault injected at %s (%s): %s", e.Site, kind, e.Msg)
}

// IsTransient reports whether err is (or wraps) a transient injected
// fault. Non-fault errors are not classified here.
func IsTransient(err error) bool {
	var fe *Error
	return asFault(err, &fe) && fe.Transient
}

// asFault is a minimal errors.As for *Error that avoids importing
// errors just for one call. It walks Unwrap chains.
func asFault(err error, target **Error) bool {
	for err != nil {
		if fe, ok := err.(*Error); ok {
			*target = fe
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// PanicValue is what a panic-action rule panics with, so recovery
// code can distinguish injected panics from real bugs in tests.
type PanicValue struct {
	Site string
	Msg  string
}

func (p *PanicValue) String() string {
	return fmt.Sprintf("fault injected panic at %s: %s", p.Site, p.Msg)
}

type action uint8

const (
	actError action = iota
	actPanic
	actLatency
	actCorrupt
)

// rule is one site:action clause. Mutable trigger state (counters,
// PRNG) is guarded by mu so concurrent passes hitting the same site
// stay internally consistent.
type rule struct {
	site      string
	act       action
	prob      float64       // p= ; 0 means "not probability-triggered"
	nth       uint64        // nth= ; fire only on this call
	every     uint64        // every= ; fire on every Nth call
	after     uint64        // after= ; skip first N calls
	count     uint64        // count= ; max fires (0 = unlimited)
	msg       string        // msg=
	delay     time.Duration // d= (latency)
	nbytes    int           // n= (corrupt)
	permanent bool          // perm

	mu    sync.Mutex
	calls uint64
	fires uint64
	rng   uint64 // splitmix64 state
}

// Plan is a parsed, installable fault schedule.
type Plan struct {
	Seed uint64
	Spec string // the spec text this plan was parsed from

	rules map[string][]*rule
	fired atomic.Uint64 // total fires, for tests/telemetry
}

// active is the installed process-global plan; nil means disabled.
var active atomic.Pointer[Plan]

// Set installs p as the process-global fault plan (nil disables
// injection) and returns the previously installed plan.
func Set(p *Plan) *Plan { return active.Swap(p) }

// Active returns the installed plan, or nil when injection is off.
func Active() *Plan { return active.Load() }

// Enabled reports whether a fault plan is installed. Hot loops hoist
// this once per run.
func Enabled() bool { return active.Load() != nil }

// Activate parses spec and installs the resulting plan. An empty spec
// uninstalls any active plan.
func Activate(spec string) error {
	if strings.TrimSpace(spec) == "" {
		Set(nil)
		return nil
	}
	p, err := Parse(spec)
	if err != nil {
		return err
	}
	Set(p)
	return nil
}

// ActivateFromEnv installs a plan from $OPTIWISE_FAULT when set.
// CLIs call this once at startup so operators can inject faults into
// any binary without new flags.
func ActivateFromEnv() error {
	spec, ok := os.LookupEnv(EnvVar)
	if !ok || strings.TrimSpace(spec) == "" {
		return nil
	}
	if err := Activate(spec); err != nil {
		return fmt.Errorf("%s: %w", EnvVar, err)
	}
	return nil
}

// EnsureSpec makes sure the process-global plan matches spec. It is
// the seam between Options.FaultSpec and the global registry: a
// profiling run that asks for a spec installs it if injection is off,
// accepts an already-active identical spec, and refuses to silently
// replace a different active plan (two concurrent jobs cannot both
// own the global registry).
func EnsureSpec(spec string) error {
	if strings.TrimSpace(spec) == "" {
		return nil
	}
	if p := Active(); p != nil {
		if p.Spec == spec {
			return nil
		}
		return fmt.Errorf("fault: plan %q already active, cannot install %q", p.Spec, spec)
	}
	return Activate(spec)
}

// Parse compiles a spec string into a Plan (see package doc for the
// grammar). Parsing never installs the plan.
func Parse(spec string) (*Plan, error) {
	p := &Plan{
		Seed:  1,
		Spec:  spec,
		rules: make(map[string][]*rule),
	}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			n, err := strconv.ParseUint(v, 0, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q: %v", v, err)
			}
			p.Seed = n
			continue
		}
		r, err := parseRule(clause)
		if err != nil {
			return nil, err
		}
		p.rules[r.site] = append(p.rules[r.site], r)
	}
	// Seed each rule's PRNG only after the whole spec (and therefore
	// the final seed= value, wherever it appeared) is known.
	i := 0
	for _, site := range sortedSites(p.rules) {
		for _, r := range p.rules[site] {
			r.rng = splitmix(p.Seed ^ hashString(r.site) ^ uint64(i)*0x9e3779b97f4a7c15)
			i++
		}
	}
	return p, nil
}

// sortedSites returns map keys in a stable order so rule seeding does
// not depend on Go map iteration.
func sortedSites(m map[string][]*rule) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ { // insertion sort; tiny n
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func parseRule(clause string) (*rule, error) {
	parts := strings.SplitN(clause, ":", 3)
	if len(parts) < 2 {
		return nil, fmt.Errorf("fault: clause %q wants site:action[:params]", clause)
	}
	r := &rule{site: parts[0], msg: "injected"}
	switch parts[1] {
	case "error":
		r.act = actError
	case "panic":
		r.act = actPanic
	case "latency":
		r.act = actLatency
		r.delay = time.Millisecond
	case "corrupt":
		r.act = actCorrupt
		r.nbytes = 1
	default:
		return nil, fmt.Errorf("fault: unknown action %q in %q", parts[1], clause)
	}
	if len(parts) == 3 {
		for _, kv := range strings.Split(parts[2], ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			if kv == "perm" {
				r.permanent = true
				continue
			}
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("fault: bad param %q in %q", kv, clause)
			}
			var err error
			switch k {
			case "p":
				r.prob, err = strconv.ParseFloat(v, 64)
				if err == nil && (r.prob < 0 || r.prob > 1 || math.IsNaN(r.prob)) {
					err = fmt.Errorf("probability out of [0,1]")
				}
			case "nth":
				r.nth, err = strconv.ParseUint(v, 10, 64)
			case "every":
				r.every, err = strconv.ParseUint(v, 10, 64)
			case "after":
				r.after, err = strconv.ParseUint(v, 10, 64)
			case "count":
				r.count, err = strconv.ParseUint(v, 10, 64)
			case "msg":
				r.msg = v
			case "d":
				r.delay, err = time.ParseDuration(v)
			case "n":
				r.nbytes, err = strconv.Atoi(v)
				if err == nil && r.nbytes < 1 {
					err = fmt.Errorf("n wants >= 1")
				}
			default:
				err = fmt.Errorf("unknown param")
			}
			if err != nil {
				return nil, fmt.Errorf("fault: param %q in %q: %v", kv, clause, err)
			}
		}
	}
	return r, nil
}

// fire evaluates the rule's trigger for one call and, when it fires,
// returns true plus a fresh PRNG draw usable for corruption offsets.
func (r *rule) fire() (bool, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls++
	if r.calls <= r.after {
		return false, 0
	}
	if r.count != 0 && r.fires >= r.count {
		return false, 0
	}
	hit := true
	switch {
	case r.nth != 0:
		hit = r.calls == r.nth
	case r.every != 0:
		hit = (r.calls-r.after)%r.every == 0
	case r.prob > 0:
		// 53-bit uniform draw in [0,1).
		draw := float64(r.next()>>11) / (1 << 53)
		hit = draw < r.prob
	}
	if !hit {
		return false, 0
	}
	r.fires++
	return true, r.next()
}

// next advances the rule's splitmix64 stream. Caller holds r.mu.
func (r *rule) next() uint64 {
	r.rng += 0x9e3779b97f4a7c15
	return splitmix(r.rng)
}

func splitmix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func hashString(s string) uint64 {
	// FNV-1a 64.
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// record counts a fire on the plan and the obs registry. Firing is a
// cold path (something is about to fail), so the registry lookup per
// fire is fine — and it keeps the count correct even when the global
// registry is swapped after the plan was parsed.
func (p *Plan) record(site string) {
	p.fired.Add(1)
	obs.Counter(obs.MFaultInjections).Inc()
	// Fault activations are exactly the moments a post-mortem wants to
	// see: mirror them into the flight recorder (no-op when disabled).
	obs.Flight("fault", site, "", obs.F("fired", p.fired.Load()))
	if lg := obs.ActiveLogger(); lg != nil {
		lg.Debug("fault fired", obs.F("site", site))
	}
}

// Fired returns the total number of faults this plan has injected.
func (p *Plan) Fired() uint64 { return p.fired.Load() }

// Err evaluates the error/panic/latency rules registered at site for
// one call. It returns a *Error when an error rule fires, panics with
// a *PanicValue when a panic rule fires, sleeps when a latency rule
// fires, and returns nil otherwise. When injection is disabled it is
// a single atomic load.
func Err(site string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.err(site)
}

func (p *Plan) err(site string) error {
	rules := p.rules[site]
	if len(rules) == 0 {
		return nil
	}
	for _, r := range rules {
		if r.act == actCorrupt {
			continue // corruption only applies through Bytes
		}
		hit, _ := r.fire()
		if !hit {
			continue
		}
		p.record(site)
		switch r.act {
		case actLatency:
			time.Sleep(r.delay)
		case actPanic:
			panic(&PanicValue{Site: site, Msg: r.msg})
		case actError:
			return &Error{Site: site, Msg: r.msg, Transient: !r.permanent}
		}
	}
	return nil
}

// Bytes runs the corrupt rules registered at site over data,
// returning a copy with deterministically chosen bytes flipped when a
// rule fires, or data unchanged otherwise. Serialization seams call
// it on their encoded payloads.
func Bytes(site string, data []byte) []byte {
	p := active.Load()
	if p == nil {
		return data
	}
	rules := p.rules[site]
	if len(rules) == 0 {
		return data
	}
	out := data
	copied := false
	for _, r := range rules {
		if r.act != actCorrupt {
			continue
		}
		hit, draw := r.fire()
		if !hit || len(data) == 0 {
			continue
		}
		if !copied {
			out = append([]byte(nil), data...)
			copied = true
		}
		p.record(site)
		for i := 0; i < r.nbytes; i++ {
			pos := int(draw % uint64(len(out)))
			out[pos] ^= byte(draw>>8) | 1 // always a real flip
			draw = splitmix(draw + 0x9e3779b97f4a7c15)
		}
	}
	return out
}
