package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunAllFigures(t *testing.T) {
	var b strings.Builder
	if err := run("all", &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Fig 9b", "Fig 10a", "Fig 10j", "Fig 11",
		"S_Agg", "ED_Hist", "transfer"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunSinglePanels(t *testing.T) {
	for _, fig := range []string{"9b", "10", "10a", "10e", "10j", "11"} {
		var b strings.Builder
		if err := run(fig, &b); err != nil {
			t.Errorf("run(%q): %v", fig, err)
		}
		if b.Len() == 0 {
			t.Errorf("run(%q): empty output", fig)
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var b strings.Builder
	if err := run("nope", &b); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := run("10z", &b); err == nil {
		t.Error("unknown panel accepted")
	}
}

func TestRunSweepPanels(t *testing.T) {
	for _, fig := range []string{"8h", "8nf"} {
		var b strings.Builder
		if err := run2(fig, 1, 0, 0, 3, &b); err != nil {
			t.Fatalf("%s: %v", fig, err)
		}
		if !strings.Contains(b.String(), "Zipf") {
			t.Errorf("%s output: %s", fig, b.String())
		}
	}
}

func TestRunPhases(t *testing.T) {
	var b strings.Builder
	if err := run2("phases", 3, 0, 0, 0, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"collection", "aggregation", "filtering", "SSI storage"} {
		if !strings.Contains(out, want) {
			t.Errorf("phases output missing %q", want)
		}
	}
}

func TestRunValidate(t *testing.T) {
	var b strings.Builder
	if err := run2("validate", 1, 60, 5, 3, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "cross-validation") {
		t.Errorf("validate output: %s", b.String())
	}
}

// TestBenchJSONPhasesAndDeltas runs the bench-json harness twice at a
// tiny scale: the written report must carry a per-phase simulated
// breakdown on the end-to-end record, and the second run must print
// deltas against the first — including "n/a" columns when the previous
// record has a zero baseline.
func TestBenchJSONPhasesAndDeltas(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_collection.json")
	var b strings.Builder
	if err := runBenchJSON(path, 20, 1, "clean", &b); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatal(err)
	}
	var phases []benchPhase
	for _, r := range report.Benchmarks {
		if strings.HasPrefix(r.Name, "end_to_end/") {
			phases = r.Phases
		}
	}
	if len(phases) == 0 {
		t.Fatalf("end_to_end record has no phase breakdown: %s", raw)
	}
	names := map[string]bool{}
	for _, ph := range phases {
		names[ph.Name] = true
		if ph.Units <= 0 {
			t.Errorf("phase %q reports %d units", ph.Name, ph.Units)
		}
	}
	if !names["filtering"] {
		t.Errorf("phase breakdown missing the filtering phase: %v", phases)
	}

	// Sabotage one baseline to zero: the delta for that row must print
	// n/a instead of dividing by zero.
	report.Benchmarks[0].NsPerOp = 0
	report.Benchmarks[0].AllocsPerOp = 0
	sab, _ := json.Marshal(report)
	if err := os.WriteFile(path, sab, 0o644); err != nil {
		t.Fatal(err)
	}
	var b2 strings.Builder
	if err := runBenchJSON(path, 20, 1, "clean", &b2); err != nil {
		t.Fatal(err)
	}
	out := b2.String()
	if !strings.Contains(out, "n/a") {
		t.Errorf("zero baseline printed no n/a:\n%s", out)
	}
	if !strings.Contains(out, "%") {
		t.Errorf("intact baselines printed no percentage deltas:\n%s", out)
	}
	if strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
		t.Errorf("delta output still divides by zero:\n%s", out)
	}
}

func TestRun2FallsBackToFigures(t *testing.T) {
	var b strings.Builder
	if err := run2("9b", 1, 0, 0, 0, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Fig 9b") {
		t.Error("fallback broken")
	}
}
