package httpapi_test

import (
	"flag"
	"io"
	"log/slog"
	"testing"

	"hotpaths/internal/httpapi"
	"hotpaths/internal/tracing"
)

// The five operational flags are part of both binaries' command lines:
// same names, same defaults, whichever binary registers them.
func TestProcessFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	proc := httpapi.NewProcess(fs, "hotpathsd-test", "localhost:6060", "dump dir")
	want := map[string]string{
		"pprof": "", "log-format": "text", "trace-sample": "0", "trace-slow": "0s", "flightrec-dump": "",
	}
	fs.VisitAll(func(f *flag.Flag) {
		if def, ok := want[f.Name]; !ok || def != f.DefValue {
			t.Errorf("flag -%s default %q, want one of %v", f.Name, f.DefValue, want)
		}
		delete(want, f.Name)
	})
	if len(want) != 0 {
		t.Errorf("flags not registered: %v", want)
	}

	prev := slog.Default()
	t.Cleanup(func() {
		slog.SetDefault(prev)
		tracing.Default.Configure("test", 0, 0)
	})
	for _, bad := range [][]string{{"-trace-sample", "1.5"}, {"-trace-sample", "-0.1"}, {"-log-format", "yaml"}} {
		if err := fs.Parse(bad); err != nil {
			t.Fatal(err)
		}
		if err := proc.Setup(); err == nil {
			t.Errorf("Setup must reject %v", bad)
		}
		fs.Parse([]string{"-trace-sample", "0", "-log-format", "text"})
	}
	if err := fs.Parse([]string{"-trace-sample", "1", "-flightrec-dump", "/tmp/x"}); err != nil {
		t.Fatal(err)
	}
	if err := proc.Setup(); err != nil {
		t.Errorf("Setup: %v", err)
	}
	if proc.DumpDir() != "/tmp/x" {
		t.Errorf("DumpDir = %q", proc.DumpDir())
	}
}
