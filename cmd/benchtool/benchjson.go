package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"github.com/trustedcells/tcq/internal/core"
	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/protocol"
)

// The -bench-json mode is a benchmark-regression harness: it measures the
// live collection pipeline and one full aggregation protocol in-process
// (ns/op, allocs/op, B/op) and writes the results as JSON. Committing the
// file alongside perf-sensitive changes turns `git diff` into the
// regression report; when a previous file exists the tool also prints the
// deltas.

// benchRecord is one measured benchmark.
type benchRecord struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// BytesPerDevice divides the record's heap footprint across the fleet
	// — the scale axis of the -fleet-sweep mode. Zero elsewhere.
	BytesPerDevice float64 `json:"bytes_per_device,omitempty"`
	// Phases breaks the end-to-end record down by protocol phase in
	// simulated time — the paper's cost axis, independent of the host.
	Phases []benchPhase `json:"phases,omitempty"`
}

// benchPhase is one phase's simulated cost: makespan in simulated ns,
// partitions processed (replicas included) and ciphertext bytes moved.
type benchPhase struct {
	Name  string `json:"name"`
	SimNs int64  `json:"sim_ns"`
	Units int    `json:"units"`
	Bytes int64  `json:"bytes"`
}

// benchReport is the file layout of BENCH_collection.json. Records
// written before the collection walk went sequential also carry a
// collect_workers field; decoding ignores it.
type benchReport struct {
	Tool       string        `json:"tool"`
	GoMaxProcs int           `json:"go_max_procs"`
	Fleet      int           `json:"fleet"`
	Benchmarks []benchRecord `json:"benchmarks"`
}

// measure runs fn iters times and reports wall time and heap allocations
// per iteration.
func measure(name string, iters int, fn func() error) (benchRecord, error) {
	if err := fn(); err != nil { // warm caches outside the measured window
		return benchRecord{}, fmt.Errorf("%s: %w", name, err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return benchRecord{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(iters)
	return benchRecord{
		Name:        name,
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / n,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / n,
	}, nil
}

const benchJSONSQL = `SELECT C.district, AVG(P.cons) FROM Power P, Consumer C ` +
	`WHERE C.cid = P.cid GROUP BY C.district`

// benchChurnPlan scripts the churn-enabled collection benchmark: a fixed
// fault seed so the record is comparable across runs.
func benchChurnPlan() *faultplan.Plan {
	return &faultplan.Plan{
		Seed:            17,
		OfflineFraction: 0.10,
		DropFraction:    0.05,
		CorruptFraction: 0.05,
		CrashFraction:   0.10,
	}
}

// runBenchJSON measures the collection phase (clean and churn-scripted per
// scenario) and one end-to-end aggregation protocol, writes path, and
// prints deltas against any previous file at the same path.
func runBenchJSON(path string, fleet, iters int, scenario string, out io.Writer) error {
	if iters < 1 {
		return fmt.Errorf("-bench-iters must be >= 1 (got %d)", iters)
	}
	if fleet < 1 {
		return fmt.Errorf("-bench-fleet must be >= 1 (got %d)", fleet)
	}
	wantClean, wantChurn := true, true
	switch scenario {
	case "both", "":
	case "clean":
		wantChurn = false
	case "churn":
		wantClean = false
	default:
		return fmt.Errorf("-bench-scenario must be clean, churn or both (got %q)", scenario)
	}
	eng, q, err := fleetEngine(fleet, false)
	if err != nil {
		return err
	}

	report := benchReport{
		Tool:       "benchtool -bench-json",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Fleet:      fleet,
	}
	ctx := context.Background()
	collect := func(plan *faultplan.Plan) func() error {
		return func() error {
			// SkipVerify isolates the protocol's cost from the commitment
			// checks; the verified path has its own tests and its own flag.
			_, err := eng.Execute(ctx, core.Request{
				Querier: q, SQL: benchJSONSQL, Kind: protocol.KindSAgg,
				Faults: plan, CollectOnly: true, SkipVerify: true,
			})
			return err
		}
	}
	type spec struct {
		name string
		fn   func() error
	}
	var specs []spec
	if wantClean {
		specs = append(specs, spec{fmt.Sprintf("collection/S_Agg/fleet=%d", fleet), collect(nil)})
	}
	if wantChurn {
		specs = append(specs, spec{
			fmt.Sprintf("collection_churn/S_Agg/fleet=%d", fleet), collect(benchChurnPlan())})
	}
	endToEnd := fmt.Sprintf("end_to_end/S_Agg/fleet=%d", fleet)
	var lastResp *core.Response
	specs = append(specs, spec{
		endToEnd, func() error {
			resp, err := eng.Execute(ctx, core.Request{
				Querier: q, SQL: benchJSONSQL, Kind: protocol.KindSAgg,
				SkipVerify: true,
			})
			if err == nil && len(resp.Result.Rows) == 0 {
				return fmt.Errorf("empty result")
			}
			lastResp = resp
			return err
		}})
	for _, s := range specs {
		rec, err := measure(s.name, iters, s.fn)
		if err != nil {
			return err
		}
		if s.name == endToEnd && lastResp != nil {
			// Attach the per-phase simulated breakdown from the last run;
			// the phases are deterministic, so any iteration is the record.
			for _, ph := range lastResp.Metrics.Phases {
				rec.Phases = append(rec.Phases, benchPhase{
					Name: ph.Name, SimNs: ph.Duration.Nanoseconds(),
					Units: ph.Units, Bytes: ph.Bytes,
				})
			}
		}
		report.Benchmarks = append(report.Benchmarks, rec)
	}

	printDeltas(path, report, out)

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}

// printDeltas renders new-vs-old per benchmark when a previous report
// exists at path.
func printDeltas(path string, report benchReport, out io.Writer) {
	old, err := os.ReadFile(path)
	if err != nil {
		return
	}
	var prev benchReport
	if json.Unmarshal(old, &prev) != nil {
		return
	}
	prevBy := make(map[string]benchRecord, len(prev.Benchmarks))
	for _, r := range prev.Benchmarks {
		prevBy[r.Name] = r
	}
	for _, r := range report.Benchmarks {
		p, ok := prevBy[r.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "%-48s %8.2fms -> %8.2fms (%s)   %8.0f -> %8.0f allocs/op (%s)\n",
			r.Name, p.NsPerOp/1e6, r.NsPerOp/1e6, pctDelta(p.NsPerOp, r.NsPerOp),
			p.AllocsPerOp, r.AllocsPerOp, pctDelta(p.AllocsPerOp, r.AllocsPerOp))
		if r.BytesPerDevice > 0 {
			fmt.Fprintf(out, "%-48s %8.1f -> %8.1f B/device (%s)\n",
				"", p.BytesPerDevice, r.BytesPerDevice, pctDelta(p.BytesPerDevice, r.BytesPerDevice))
		}
	}
}

// pctDelta renders the relative change, or "n/a" when the previous value
// is zero — a fresh or truncated record has no meaningful baseline, and
// dividing by it would print ±Inf.
func pctDelta(prev, cur float64) string {
	if prev == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(cur-prev)/prev)
}
