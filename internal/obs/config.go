package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
)

// Config is the CLI-facing observability configuration shared by
// cmd/optiwise and cmd/owbench. Zero value = everything off.
//
// Progress output is owned by the Config (not a package global): two
// concurrent serve jobs each hold their own Config, so their progress
// lines can never interleave through a shared writer. For the
// single-CLI case the behavior of -progress is byte-identical to the
// old global: plain "%s\n" lines on stderr while activated.
type Config struct {
	// TracePath receives Chrome trace-event JSON of the pipeline spans.
	TracePath string
	// MetricsPath receives Prometheus text exposition at exit.
	MetricsPath string
	// LogPath receives JSONL structured events ("-" = stderr).
	LogPath string
	// PprofAddr serves net/http/pprof + expvar when non-empty.
	PprofAddr string
	// Progress enables per-workload progress lines on stderr.
	Progress bool
	// FlightPath, when non-empty, installs a process-global flight
	// recorder and writes its dump to this file at flush time (and on
	// SIGQUIT in the CLIs).
	FlightPath string

	// metrics, when set by MetricsFrom, is what the -metrics file and
	// the -flight exit dump's counter deltas read instead of the
	// installed registry.
	metrics func() RegistrySnapshot

	progressMu sync.Mutex
	progressW  io.Writer
}

// BindFlags registers the observability flags (-trace, -metrics, -log,
// -pprof, -progress, -flight) on fs and returns the config they
// populate.
func BindFlags(fs *flag.FlagSet) *Config {
	c := &Config{}
	fs.StringVar(&c.TracePath, "trace", "",
		"write Chrome trace-event JSON of the pipeline spans to `file`")
	fs.StringVar(&c.MetricsPath, "metrics", "",
		"write Prometheus text exposition of pipeline metrics to `file`")
	fs.StringVar(&c.LogPath, "log", "",
		"write JSONL structured events to `file` (\"-\" = stderr)")
	fs.StringVar(&c.PprofAddr, "pprof", "",
		"serve net/http/pprof and expvar on `addr` (e.g. localhost:6060)")
	fs.BoolVar(&c.Progress, "progress", false,
		"emit per-workload progress lines on stderr")
	fs.StringVar(&c.FlightPath, "flight", "",
		"record a flight-recorder ring and dump it to `file` at exit (and on SIGQUIT)")
	return c
}

// Enabled reports whether any observability output was requested.
func (c *Config) Enabled() bool {
	return c != nil && (c.TracePath != "" || c.MetricsPath != "" ||
		c.LogPath != "" || c.PprofAddr != "" || c.Progress || c.FlightPath != "")
}

// MetricsFrom makes flush read src for the -metrics file and the
// -flight exit dump's counter deltas, in place of the registry Activate
// installed: a process whose metrics live in a registry of its own (a
// serve.Server) exports that view. Call it before flush.
func (c *Config) MetricsFrom(src func() RegistrySnapshot) { c.metrics = src }

// setProgressWriter directs this config's Progressf lines to w (nil
// disables). Activate calls it with os.Stderr when -progress was set.
func (c *Config) setProgressWriter(w io.Writer) {
	if c == nil {
		return
	}
	c.progressMu.Lock()
	c.progressW = w
	c.progressMu.Unlock()
}

// Progressf emits one progress line (e.g. "[3/23] 505.mcf ...") when
// this config has a progress writer; otherwise it is a no-op. Nil-safe.
func (c *Config) Progressf(format string, args ...any) {
	if c == nil {
		return
	}
	c.progressMu.Lock()
	w := c.progressW
	c.progressMu.Unlock()
	if w == nil {
		return
	}
	fmt.Fprintf(w, format+"\n", args...)
}

// Activate installs the global tracer/registry/logger per the config
// and returns a flush function that writes the trace, metrics, and
// flight-recorder files and restores the previously installed
// instruments. Call flush exactly once, after the traced work finishes.
//
// Output files (-trace, -flight) are created eagerly so an unwritable
// path fails before hours of profiling, not after.
func (c *Config) Activate() (flush func() error, err error) {
	flush = func() error { return nil }
	if c == nil {
		return flush, nil
	}
	var tracer *Tracer
	var registry *Registry
	var flight *FlightRecorder
	var prevTracer *Tracer
	var prevRegistry *Registry
	var prevLogger *Logger
	var prevFlight *FlightRecorder
	var logFile, traceFile, flightFile *os.File
	loggerSet := false
	flightSet := false
	restore := func() {
		if tracer != nil {
			SetTracer(prevTracer)
		}
		if registry != nil {
			SetRegistry(prevRegistry)
		}
		if loggerSet {
			setLogger(prevLogger)
		}
		if flightSet {
			SetFlightRecorder(prevFlight)
		}
		if logFile != nil {
			logFile.Close()
			logFile = nil
		}
		if traceFile != nil {
			traceFile.Close()
			traceFile = nil
		}
		if flightFile != nil {
			flightFile.Close()
			flightFile = nil
		}
		c.setProgressWriter(nil)
	}
	if c.TracePath != "" {
		f, err := os.Create(c.TracePath)
		if err != nil {
			return func() error { return nil }, fmt.Errorf("obs: trace output: %w", err)
		}
		traceFile = f
		tracer = NewTracer()
		prevTracer = SetTracer(tracer)
	}
	if c.MetricsPath != "" || c.PprofAddr != "" {
		registry = NewRegistry()
		prevRegistry = SetRegistry(registry)
	}
	if c.FlightPath != "" {
		f, err := os.Create(c.FlightPath)
		if err != nil {
			restore()
			return func() error { return nil }, fmt.Errorf("obs: flight output: %w", err)
		}
		flightFile = f
		flight = NewFlightRecorder(0)
		prevFlight = SetFlightRecorder(flight)
		flightSet = true
	}
	if c.LogPath != "" {
		w := os.Stderr
		if c.LogPath != "-" {
			f, err := os.Create(c.LogPath)
			if err != nil {
				restore()
				return func() error { return nil }, err
			}
			logFile = f
			w = f
		}
		prevLogger = setLogger(newJSONLLogger(w, LevelDebug))
		loggerSet = true
	}
	if c.Progress {
		c.setProgressWriter(os.Stderr)
	}
	if c.PprofAddr != "" {
		addr, err := startPprofServer(c.PprofAddr)
		if err != nil {
			restore()
			return func() error { return nil }, fmt.Errorf("obs: pprof server: %w", err)
		}
		Info("pprof server listening", F("addr", addr))
		fmt.Fprintf(os.Stderr, "obs: pprof+expvar on http://%s/debug/pprof/\n", addr)
	}
	flush = func() error {
		defer restore()
		snapshot := c.metrics
		if snapshot == nil {
			snapshot = registry.FullSnapshot
		}
		if tracer != nil {
			if err := tracer.WriteChromeTrace(traceFile, "", nil); err != nil {
				return err
			}
			if err := traceFile.Close(); err != nil {
				return err
			}
			traceFile = nil
		}
		if flight != nil {
			flight.RecordMetricDeltas(nil, snapshot().Counters)
			if err := flight.Dump("exit", tracer.TraceID()).WriteJSON(flightFile); err != nil {
				return err
			}
			if err := flightFile.Close(); err != nil {
				return err
			}
			flightFile = nil
		}
		if registry != nil && c.MetricsPath != "" {
			f, err := os.Create(c.MetricsPath)
			if err != nil {
				return err
			}
			if err := WriteExposition(f, []NodeSnapshot{{Snapshot: snapshot()}}, false); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		return nil
	}
	return flush, nil
}
