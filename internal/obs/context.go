package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
)

// Trace identity and span propagation through context.
//
// PR 2 gave the serve pipeline per-job goroutines; PR 5 gives each job a
// trace identity that survives the queue→worker→pass handoffs. The
// ambient open-span stack on a Tracer assumes a single lineage, which is
// wrong as soon as two jobs (or the two overlapped profiling passes)
// share a process. Context carries the parent explicitly instead:
//
//   - ContextWithSpan threads the current parent span.
//   - StartCtx opens a child of the context's span when one is present,
//     falling back to the global ambient tracer otherwise — existing
//     single-CLI behavior is unchanged.
//   - ContextWithTraceID / TraceIDFromContext carry the job's trace ID so
//     log lines, metric exemplars, and flight-recorder events can stamp
//     it without knowing about serve.
//
// All helpers are nil-safe and cost one context lookup; no goroutine
// holding only a background context pays anything new.

type ctxKeySpan struct{}
type ctxKeyTraceID struct{}

// ContextWithSpan returns a context carrying s as the current parent
// span. A nil span is allowed and simply erases any inherited one.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKeySpan{}, s)
}

// StartCtx opens a span named name under the span carried by ctx. When
// ctx carries no span it behaves exactly like Start (ambient global
// tracer), so call sites can migrate incrementally. Nil-safe: returns a
// nil no-op span when tracing is disabled on the relevant tracer.
func StartCtx(ctx context.Context, name string) *Span {
	if ctx != nil {
		if parent, _ := ctx.Value(ctxKeySpan{}).(*Span); parent != nil {
			return parent.StartChild(name)
		}
	}
	return Start(name)
}

// ContextWithTraceID returns a context carrying the trace ID.
func ContextWithTraceID(ctx context.Context, traceID string) context.Context {
	return context.WithValue(ctx, ctxKeyTraceID{}, traceID)
}

// TraceIDFromContext returns the trace ID carried by ctx, or "".
func TraceIDFromContext(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(ctxKeyTraceID{}).(string)
	return id
}

// NewTraceID mints a 32-hex-digit (16-byte) random trace ID, the W3C
// trace-context width. It never returns the all-zero ID.
func NewTraceID() string {
	var b [16]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			// crypto/rand failing is effectively fatal elsewhere; fall
			// back to a fixed-but-valid ID rather than panic in a
			// diagnostics path.
			return "00000000000000000000000000000001"
		}
		if b != [16]byte{} {
			return hex.EncodeToString(b[:])
		}
	}
}

// ValidTraceID reports whether id is a well-formed, non-zero 32-digit
// lowercase-hex trace ID.
func ValidTraceID(id string) bool {
	if len(id) != 32 {
		return false
	}
	nonzero := false
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9':
			if c != '0' {
				nonzero = true
			}
		case c >= 'a' && c <= 'f':
			nonzero = true
		default:
			return false
		}
	}
	return nonzero
}

// ParseTraceparent extracts the trace ID from a W3C traceparent header
// ("00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>"). As a
// convenience it also accepts a bare 32-hex trace ID. It returns an
// error for malformed input or the all-zero trace ID, per the spec.
func ParseTraceparent(header string) (string, error) {
	h := strings.TrimSpace(header)
	if h == "" {
		return "", fmt.Errorf("obs: empty traceparent")
	}
	if ValidTraceID(h) {
		return h, nil
	}
	parts := strings.Split(h, "-")
	if len(parts) != 4 {
		return "", fmt.Errorf("obs: malformed traceparent %q: want version-traceid-spanid-flags", header)
	}
	if len(parts[0]) != 2 || !isHex(parts[0]) {
		return "", fmt.Errorf("obs: malformed traceparent version %q", parts[0])
	}
	if parts[0] == "ff" {
		return "", fmt.Errorf("obs: invalid traceparent version ff")
	}
	if !ValidTraceID(parts[1]) {
		return "", fmt.Errorf("obs: malformed traceparent trace-id %q", parts[1])
	}
	if len(parts[2]) != 16 || !isHex(parts[2]) || parts[2] == "0000000000000000" {
		return "", fmt.Errorf("obs: malformed traceparent span-id %q", parts[2])
	}
	if len(parts[3]) != 2 || !isHex(parts[3]) {
		return "", fmt.Errorf("obs: malformed traceparent flags %q", parts[3])
	}
	return parts[1], nil
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
