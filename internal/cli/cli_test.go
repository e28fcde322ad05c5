package cli

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/etl"
	"repro/internal/warehouse"
)

func parse(t *testing.T, args ...string) (warehouse.Options, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := define(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f.options()
}

// TestOptions: the shared flags select the warehouse options, a bad mode
// is an error naming it, and -repo is required.
func TestOptions(t *testing.T) {
	got, err := parse(t, "-repo", "r", "-mode", "external", "-cache", "7", "-workers", "3",
		"-mem-budget", "1048576", "-slow-query", "250ms")
	want := warehouse.Options{Mode: warehouse.External, Workers: 3, MemoryBudget: 1 << 20,
		SlowQueryThreshold: 250 * time.Millisecond, ETL: etl.Options{CacheBudget: 7}}
	if err != nil || got != want {
		t.Errorf("options = %+v, %v; want %+v", got, err, want)
	}
	if got, err := parse(t, "-repo", "r"); err != nil || got.Mode != warehouse.Lazy {
		t.Errorf("default mode = %v, %v; want lazy", got.Mode, err)
	}
	if _, err := parse(t, "-repo", "r", "-mode", "Lazy"); err == nil || !strings.Contains(err.Error(), `"Lazy"`) {
		t.Errorf("-mode Lazy: error %v, want one naming the value", err)
	}
	if _, err := parse(t, "-mode", "eager"); err == nil || !strings.Contains(err.Error(), "-repo is required") {
		t.Errorf("no -repo: error %v", err)
	}
}
