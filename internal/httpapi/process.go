package httpapi

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hotpaths/internal/flightrec"
	"hotpaths/internal/tracing"
)

// Process is the shell both binaries run in: the five operational flags
// (-pprof, -log-format, -trace-sample, -trace-slow, -flightrec-dump),
// slog and tracer setup, the public and admin listeners, and the
// signal-to-shutdown sequence. What happens around Shutdown differs per
// binary for a reason — the gateway closes its fan-ins before, the daemon
// drains its backend after — so the caller sequences Start, Wait,
// Shutdown and DumpFlightRecorder itself.
type Process struct {
	service  string
	pprof    *string
	logFmt   *string
	trSample *float64
	trSlow   *time.Duration
	frDump   *string

	public, admin *http.Server
	errc          chan error
	sigc          chan os.Signal
}

// NewProcess registers the shared flags on fs. adminExample is the admin
// address the -pprof help suggests and dumpUsage the -flightrec-dump help:
// the two things that read differently per binary.
func NewProcess(fs *flag.FlagSet, service, adminExample, dumpUsage string) *Process {
	return &Process{
		service:  service,
		pprof:    fs.String("pprof", "", "admin listen address (e.g. "+adminExample+") serving net/http/pprof, /metrics and /debug/traces; empty disables it"),
		logFmt:   fs.String("log-format", "text", "log output format: text or json"),
		trSample: fs.Float64("trace-sample", 0, "fraction of requests to trace in [0,1]; sampled traces are kept in the /debug/traces ring"),
		trSlow:   fs.Duration("trace-slow", 0, "force-trace and log any request slower than this (0 disables); works even with -trace-sample 0"),
		frDump:   fs.String("flightrec-dump", "", dumpUsage),
	}
}

// Setup installs the slog default and configures the process tracer from
// the parsed flags.
func (p *Process) Setup() error {
	if err := tracing.SetupSlog(*p.logFmt, p.service); err != nil {
		return err
	}
	if *p.trSample < 0 || *p.trSample > 1 {
		return fmt.Errorf("-trace-sample must be in [0,1], got %g", *p.trSample)
	}
	tracing.Default.Configure(p.service, *p.trSample, *p.trSlow)
	return nil
}

// Fail logs a startup error and returns the exit code for it.
func Fail(err error) int {
	slog.Error("startup failed", "error", err)
	return 1
}

// DumpDir returns the -flightrec-dump directory ("" when disabled).
func (p *Process) DumpDir() string { return *p.frDump }

// DumpFlightRecorder writes the shutdown dump when -flightrec-dump is
// set: what the process was doing in its last moments, for postmortems
// that start after it (and its in-memory ring) is gone.
func (p *Process) DumpFlightRecorder() error {
	if *p.frDump == "" {
		return nil
	}
	path, err := flightrec.Default.DumpTo(*p.frDump, "shutdown")
	if err != nil {
		slog.Error("flight-recorder dump failed", "error", err)
		return err
	}
	slog.Info("flight-recorder dump written", "path", path)
	return nil
}

// Start serves h on addr and, with -pprof, AdminHandler on its own
// listener, so pprof is never reachable through the public port.
// onShutdown, when non-nil, runs as Shutdown begins (the place to end
// streams that would otherwise pin it to its timeout).
func (p *Process) Start(addr string, h http.Handler, onShutdown func()) {
	p.public = &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second}
	if onShutdown != nil {
		p.public.RegisterOnShutdown(onShutdown)
	}
	p.errc = make(chan error, 2) // one send per listener
	p.sigc = make(chan os.Signal, 1)
	signal.Notify(p.sigc, os.Interrupt, syscall.SIGTERM)
	go func() { p.errc <- p.public.ListenAndServe() }()
	if *p.pprof != "" {
		p.admin = &http.Server{Addr: *p.pprof, Handler: AdminHandler(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := p.admin.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				p.errc <- fmt.Errorf("admin listener: %w", err)
			}
		}()
		slog.Info("admin listener up (pprof + metrics + traces)", "addr", *p.pprof)
	}
}

// Wait blocks until SIGINT/SIGTERM (nil) or until a listener fails. An
// admin-listener failure is fatal like the public one's: an operator who
// asked for profiling and silently did not get it would debug the wrong
// thing.
func (p *Process) Wait() error {
	select {
	case err := <-p.errc:
		if !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	case <-p.sigc:
	}
	slog.Info("shutting down")
	return nil
}

// Shutdown stops accepting and lets in-flight requests finish, for up to
// ten seconds across both listeners. Failures are logged and returned.
func (p *Process) Shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := p.public.Shutdown(ctx)
	if err != nil {
		slog.Error("http shutdown failed", "error", err)
	}
	if p.admin != nil {
		if aerr := p.admin.Shutdown(ctx); aerr != nil {
			slog.Error("admin shutdown failed", "error", aerr)
			err = errors.Join(err, aerr)
		}
	}
	return err
}
