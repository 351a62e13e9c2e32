package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func testFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("rtseed-overhead", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags(testFlagSet(), nil)
	if err != nil {
		t.Fatalf("parseFlags(nil) = %v", err)
	}
	if want := runtime.GOMAXPROCS(0); o.workers != want {
		t.Errorf("default workers = %d, want GOMAXPROCS (%d)", o.workers, want)
	}
	if o.fig != 0 || o.jobs != 100 || o.quick || o.dist {
		t.Errorf("unexpected defaults: %+v", o)
	}
}

func TestParseFlagsWorkersExplicit(t *testing.T) {
	o, err := parseFlags(testFlagSet(), []string{"-workers", "3", "-fig", "11"})
	if err != nil {
		t.Fatalf("parseFlags = %v", err)
	}
	if o.workers != 3 || o.fig != 11 {
		t.Errorf("got workers=%d fig=%d, want 3, 11", o.workers, o.fig)
	}
}

func TestParseFlagsRejectsNonPositiveWorkers(t *testing.T) {
	for _, bad := range []string{"0", "-1", "-8"} {
		_, err := parseFlags(testFlagSet(), []string{"-workers", bad})
		if err == nil {
			t.Errorf("-workers %s: accepted, want error", bad)
			continue
		}
		if !strings.Contains(err.Error(), "GOMAXPROCS") {
			t.Errorf("-workers %s: error %q should point at the GOMAXPROCS default", bad, err)
		}
	}
}

func TestRunQuickSingleFigure(t *testing.T) {
	if err := run(io.Discard, 13, 3, true, 0, "", 2); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run(io.Discard, 99, 3, true, 0, "", 2); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestRunWithCSV(t *testing.T) {
	path := t.TempDir() + "/figs.csv"
	if err := run(io.Discard, 10, 2, true, 0, path, 2); err != nil {
		t.Fatal(err)
	}
}

func TestRunDistributions(t *testing.T) {
	if err := runDistributions(io.Discard, 3, 0); err != nil {
		t.Fatal(err)
	}
}

func TestParseFlagsProfilePaths(t *testing.T) {
	o, err := parseFlags(testFlagSet(), []string{"-cpuprofile", "cpu.prof", "-memprofile", "mem.prof"})
	if err != nil {
		t.Fatalf("parseFlags = %v", err)
	}
	if o.cpuprofile != "cpu.prof" || o.memprofile != "mem.prof" {
		t.Errorf("profile paths = %q, %q; want cpu.prof, mem.prof", o.cpuprofile, o.memprofile)
	}
	if o, err = parseFlags(testFlagSet(), nil); err != nil || o.cpuprofile != "" || o.memprofile != "" {
		t.Errorf("profiling not off by default: %+v (err %v)", o, err)
	}
}

// TestRunQuickGolden pins `rtseed-overhead -quick -workers 2` byte for byte:
// every Figs. 10-13 table at np = 4, 57 and 228. To accept an intended
// change, regenerate testdata/quick.golden from that command.
func TestRunQuickGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 0, 100, true, 0, "", 2); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "quick.golden", buf.Bytes())
}

// TestRunDistributionsGolden pins `rtseed-overhead -dist -jobs 10` byte for
// byte. Its np=228 p95/p99 columns are the tails of the kernel's mutex,
// condvar and timer service paths, which the -quick means average away. To
// accept an intended change, regenerate testdata/dist.golden from that
// command.
func TestRunDistributionsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := runDistributions(&buf, 10, 0); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "dist.golden", buf.Bytes())
}

// checkGolden fails t unless got equals testdata/name, naming the first
// line where they differ and quoting both sides of it.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	line := 0
	for line < len(gotLines) && line < len(wantLines) && gotLines[line] == wantLines[line] {
		line++
	}
	t.Fatalf("output differs from testdata/%s at line %d:\n got: %q\nwant: %q",
		name, line+1, lineAt(gotLines, line), lineAt(wantLines, line))
}

// lineAt returns lines[i] cut to 120 bytes, or a marker past the end.
func lineAt(lines []string, i int) string {
	if i >= len(lines) {
		return "<end of output>"
	}
	if s := lines[i]; len(s) > 120 {
		return s[:120] + "..."
	}
	return lines[i]
}
