package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Level is a log severity.
type Level int

// Log severities, lowest first.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// Logger writes structured events either as JSONL (machine-readable,
// for -log file.jsonl) or as human-readable text (terminal stderr
// diagnostics). It separates diagnostics from experiment output: the
// CLIs keep stdout for results and route warnings/errors through here.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	min   Level
	jsonl bool
	// now is substitutable in tests for deterministic timestamps.
	now func() time.Time
}

// newTextLogger returns a human-readable logger writing to w at min
// severity and above.
func newTextLogger(w io.Writer, min Level) *Logger {
	return &Logger{w: w, min: min, now: time.Now}
}

// newJSONLLogger returns a JSONL structured-event logger writing to w
// at min severity and above.
func newJSONLLogger(w io.Writer, min Level) *Logger {
	return &Logger{w: w, min: min, jsonl: true, now: time.Now}
}

// Log writes one event. Nil-safe. Warn-and-above events are mirrored
// into the flight recorder (one atomic load when none is installed) so
// a post-mortem dump carries the log lines leading up to the trigger.
func (l *Logger) Log(level Level, msg string, attrs ...Attr) {
	if l == nil || level < l.min {
		return
	}
	if level >= LevelWarn {
		if fr := activeFlight.Load(); fr != nil {
			trace := ""
			for _, a := range attrs {
				if a.Key == "trace_id" {
					trace, _ = a.Value.(string)
					break
				}
			}
			fr.Record("log", msg, trace, append([]Attr{F("level", level.String())}, attrs...)...)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.jsonl {
		rec := make(map[string]any, len(attrs)+3)
		rec["ts"] = l.now().UTC().Format(time.RFC3339Nano)
		rec["level"] = level.String()
		rec["msg"] = msg
		for _, a := range attrs {
			rec[a.Key] = a.Value
		}
		b, err := json.Marshal(rec)
		if err != nil {
			return
		}
		fmt.Fprintf(l.w, "%s\n", b)
		return
	}
	fmt.Fprintf(l.w, "%s: %s", level, msg)
	for _, a := range attrs {
		fmt.Fprintf(l.w, " %s=%v", a.Key, a.Value)
	}
	fmt.Fprintln(l.w)
}

// Debug / Info / Warn / Error log at the corresponding level. Nil-safe.
func (l *Logger) Debug(msg string, attrs ...Attr) { l.Log(LevelDebug, msg, attrs...) }

// Info logs at info level. Nil-safe.
func (l *Logger) Info(msg string, attrs ...Attr) { l.Log(LevelInfo, msg, attrs...) }

// Warn logs at warn level. Nil-safe.
func (l *Logger) Warn(msg string, attrs ...Attr) { l.Log(LevelWarn, msg, attrs...) }

// Error logs at error level. Nil-safe.
func (l *Logger) Error(msg string, attrs ...Attr) { l.Log(LevelError, msg, attrs...) }

// Package-level logging helpers route through the installed global
// logger; with none installed they fall back to a stderr text logger so
// diagnostics are never silently dropped.
func globalLogger() *Logger {
	if l := activeLogger.Load(); l != nil {
		return l
	}
	return fallbackLogger()
}

var (
	fallbackOnce sync.Once
	fallback     *Logger
)

func fallbackLogger() *Logger {
	fallbackOnce.Do(func() { fallback = newTextLogger(os.Stderr, LevelWarn) })
	return fallback
}

// Info logs an info event on the global logger.
func Info(msg string, attrs ...Attr) { globalLogger().Info(msg, attrs...) }

// Warn logs a warning on the global logger.
func Warn(msg string, attrs ...Attr) { globalLogger().Warn(msg, attrs...) }

// Error logs an error on the global logger.
func Error(msg string, attrs ...Attr) { globalLogger().Error(msg, attrs...) }

// Progress output lives on Config (see config.go): the old package
// globals let two concurrent serve jobs interleave their progress
// lines through one shared writer, so PR 5 moved the writer onto the
// object that owns the flags.
