package obs_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pretium/internal/exp"
	"pretium/internal/obs"
)

// update rewrites the checked-in golden files instead of comparing
// against them: go test ./internal/obs -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

const (
	goldenFile     = "testdata/golden_trace.jsonl"
	goldenCounters = "testdata/golden_lp_counters.txt"
)

// goldenRecorder executes the golden scenario — the Small experiment setup
// at a fixed seed, run end-to-end through the Pretium controller — with its
// own recorder, and returns it with the trace it buffered.
func goldenRecorder(t *testing.T) (*obs.Recorder, *obs.TraceBuffer) {
	t.Helper()
	rec, buf := obs.NewTraceRecorder()
	s := exp.NewSetup(exp.Small(), exp.WithSeed(7), exp.WithObs(rec))
	if _, err := s.RunPretium(nil); err != nil {
		t.Fatalf("RunPretium: %v", err)
	}
	if rec.Events() == 0 {
		t.Fatal("golden run emitted no events")
	}
	return rec, buf
}

// goldenRun is goldenRecorder's raw JSONL event stream.
func goldenRun(t *testing.T) []byte {
	t.Helper()
	_, buf := goldenRecorder(t)
	return buf.Bytes()
}

// checkGolden compares got byte-for-byte against the checked-in file, or
// rewrites the file under -update.
func checkGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", file, len(got))
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s diverges from golden:\n%s", file, traceDiff(want, got))
	}
}

// TestGoldenTrace locks the full event stream of the golden scenario
// byte-for-byte against the checked-in golden file. Any change to event
// names, payload keys, float formatting, emission order, or the control
// loop's observable decisions shows up as a diff here; refresh
// deliberately with -update and review the diff like code.
func TestGoldenTrace(t *testing.T) {
	checkGolden(t, goldenFile, goldenRun(t))
}

// TestGoldenLPCounters locks the golden scenario's simplex work as exact
// integers. The trace's 9-digit floats absorb a change in the pivot path;
// these counters do not, so a change that claims to move no float has to
// leave every one of them alone. The columns Bland's rule priced come last:
// the scenario's LPs never stall into it, so both read 0, and a stall
// brought on by a change shows here as a count.
func TestGoldenLPCounters(t *testing.T) {
	rec, _ := goldenRecorder(t)
	var got bytes.Buffer
	for _, name := range []string{
		"sam.lp.iterations", "sam.lp.refactorizations", "sam.lp.warm_starts",
		"pc.lp.iterations", "pc.lp.refactorizations",
		"sam.lp.bland_priced", "pc.lp.bland_priced",
	} {
		fmt.Fprintf(&got, "%s %d\n", name, rec.Metrics().Counter(name).Value())
	}
	checkGolden(t, goldenCounters, got.Bytes())
}

// TestGoldenTraceParallel re-runs the golden scenario several times under
// exp.ParallelFor — each run owning its Recorder — and checks every
// stream is byte-identical to a serial run: the trace depends only on the
// scenario, never on goroutine scheduling.
func TestGoldenTraceParallel(t *testing.T) {
	want := goldenRun(t)
	const runs = 4
	traces := make([][]byte, runs)
	err := exp.ParallelFor(runs, func(i int) error {
		rec, buf := obs.NewTraceRecorder()
		s := exp.NewSetup(exp.Small(), exp.WithSeed(7), exp.WithObs(rec))
		if _, err := s.RunPretium(nil); err != nil {
			return err
		}
		traces[i] = buf.Bytes()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range traces {
		if !bytes.Equal(tr, want) {
			t.Errorf("parallel run %d diverges from serial:\n%s", i, traceDiff(want, tr))
		}
	}
}

// traceDiff renders the first few differing lines of two JSONL streams.
func traceDiff(want, got []byte) string {
	w := bytes.Split(want, []byte("\n"))
	g := bytes.Split(got, []byte("\n"))
	var out bytes.Buffer
	fmt.Fprintf(&out, "golden %d lines, got %d lines\n", len(w), len(g))
	shown := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl []byte
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if bytes.Equal(wl, gl) {
			continue
		}
		fmt.Fprintf(&out, "line %d:\n  golden: %s\n  got:    %s\n", i+1, wl, gl)
		if shown++; shown >= 5 {
			fmt.Fprintln(&out, "  ...")
			break
		}
	}
	return out.String()
}
