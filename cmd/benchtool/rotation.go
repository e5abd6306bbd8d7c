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
	"github.com/trustedcells/tcq/internal/querier"
)

// The -rotation-scenario mode records what a live key rotation costs the
// collection phase at fleet scale: one packed fleet, one collection pass
// with no lifecycle activity, and one pass during which a scripted
// rotation begins mid-walk and rolls out in staged waves. Both records
// land in BENCH_fleet.json next to the fleet-sweep numbers — the
// baseline reuses the sweep's record name so a previous file yields a
// direct delta, and fresh records print "n/a" rather than a bogus
// percentage.

// rotationWaveCount is the staged-rollout width of the recorded scenario.
const rotationWaveCount = 3

// benchRotationPlan scripts the recorded rotation: begin a quarter of the
// way through the deposit walk, advance one wave every further eighth.
// Commit-count triggers keep the record comparable across hosts.
func benchRotationPlan(fleet int) *faultplan.Plan {
	return &faultplan.Plan{
		Seed: 29,
		Rotation: &faultplan.RotationScript{
			AfterDeposits: fleet / 4,
			Waves:         rotationWaveCount,
			WaveEvery:     fleet / 8,
		},
	}
}

// runRotationScenario measures the two collection passes and merges the
// records into any existing report at path, so the rotation numbers ride
// alongside the fleet sweep's instead of replacing them.
func runRotationScenario(path string, fleet, iters int, out io.Writer) error {
	if iters < 1 {
		return fmt.Errorf("-fleet-iters must be >= 1 (got %d)", iters)
	}
	if fleet < 8 {
		return fmt.Errorf("-rotation-fleet must be >= 8 (got %d)", fleet)
	}
	eng, q, err := fleetEngine(fleet, true)
	if err != nil {
		return err
	}
	ctx := context.Background()

	report := benchReport{
		Tool:       "benchtool -rotation-scenario",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Fleet:      fleet,
	}

	// Baseline: the fleet sweep's collection record, re-measured, so the
	// committed file keeps one comparable pair.
	base, err := measure(fmt.Sprintf("collection_packed/S_Agg/fleet=%d", fleet),
		iters, func() error {
			_, err := eng.Execute(ctx, core.Request{
				Querier: q, SQL: benchJSONSQL, Kind: protocol.KindSAgg,
				CollectOnly: true, SkipVerify: true,
			})
			return err
		})
	if err != nil {
		return err
	}
	base.BytesPerDevice = base.BytesPerOp / float64(fleet)
	fmt.Fprintf(out, "fleet=%-8d collect:          %8.2fms  %10.0f allocs/op\n",
		fleet, base.NsPerOp/1e6, base.AllocsPerOp)
	report.Benchmarks = append(report.Benchmarks, base)

	// Rotating: every iteration posts at the current epoch, rotates the
	// whole fleet one epoch mid-walk, and closes the grace window before
	// the next — so each pass pays a full begin/rollout/complete cycle.
	cred := eng.Authority().Issue("edf-rot", []string{"energy-analyst"},
		time.Unix(1700000000, 0).Add(24*time.Hour))
	plan := benchRotationPlan(fleet)
	rot, err := measure(
		fmt.Sprintf("collection_rotating/S_Agg/fleet=%d/waves=%d", fleet, rotationWaveCount),
		iters, func() error {
			rq, err := querier.New("edf-rot", eng.K1(), cred, eng.Schema())
			if err != nil {
				return err
			}
			if _, err := eng.Execute(ctx, core.Request{
				Querier: rq, SQL: benchJSONSQL, Kind: protocol.KindSAgg,
				Faults: plan, CollectOnly: true, SkipVerify: true,
			}); err != nil {
				return err
			}
			return eng.CompleteRotation()
		})
	if err != nil {
		return err
	}
	rot.BytesPerDevice = rot.BytesPerOp / float64(fleet)
	fmt.Fprintf(out, "fleet=%-8d collect+rotation: %8.2fms  %10.0f allocs/op  (%s vs clean)\n",
		fleet, rot.NsPerOp/1e6, rot.AllocsPerOp, pctDelta(base.NsPerOp, rot.NsPerOp))
	report.Benchmarks = append(report.Benchmarks, rot)

	printDeltas(path, report, out)

	merged := mergeReport(path, report)
	data, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}

// mergeReport folds the new records into any existing report at path:
// records with the same name are replaced in place, new ones appended, and
// every other record (the fleet sweep's) is kept. A missing or unreadable
// previous file yields the new report alone.
func mergeReport(path string, report benchReport) benchReport {
	old, err := os.ReadFile(path)
	if err != nil {
		return report
	}
	var prev benchReport
	if json.Unmarshal(old, &prev) != nil {
		return report
	}
	replaced := make(map[string]benchRecord, len(report.Benchmarks))
	for _, r := range report.Benchmarks {
		replaced[r.Name] = r
	}
	merged := prev
	merged.Benchmarks = nil
	for _, r := range prev.Benchmarks {
		if nr, ok := replaced[r.Name]; ok {
			merged.Benchmarks = append(merged.Benchmarks, nr)
			delete(replaced, r.Name)
		} else {
			merged.Benchmarks = append(merged.Benchmarks, r)
		}
	}
	for _, r := range report.Benchmarks {
		if _, ok := replaced[r.Name]; ok {
			merged.Benchmarks = append(merged.Benchmarks, r)
		}
	}
	return merged
}
