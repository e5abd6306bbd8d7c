package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

	"github.com/trustedcells/tcq/internal/core"
	"github.com/trustedcells/tcq/internal/protocol"
)

// The -pipeline-compare mode records what the streaming pipeline buys (or
// costs) end to end: one full S_Agg query per fleet size, barrier-mode and
// pipelined, on packed fleets. Both records merge into BENCH_collection.json
// next to the -bench-json numbers, and every printed delta goes through the
// n/a guard — on a single-core host the overlap is bookkeeping-bound and
// the honest number is "about the same", not a synthetic win. The conformance
// check rides along: the pipelined run's measured/predicted T_Q ratio must
// stay inside the regression band, same as check.sh's gate.

// pipelineRatioLo/Hi is the conformance band of the pipelined record,
// mirroring TestPipelineConformanceBand.
const (
	pipelineRatioLo = 0.25
	pipelineRatioHi = 5.0
)

// runPipelineCompare measures barrier vs pipelined execution per fleet size
// and merges the records into the report at path.
func runPipelineCompare(path, sizesCSV string, iters int, out io.Writer) error {
	if iters < 1 {
		return fmt.Errorf("-bench-iters must be >= 1 (got %d)", iters)
	}
	sizes, err := parseFleetSizes(sizesCSV)
	if err != nil {
		return err
	}
	report := benchReport{
		Tool:       "benchtool -pipeline-compare",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Fleet:      sizes[len(sizes)-1],
	}
	ctx := context.Background()
	for _, fleet := range sizes {
		eng, q, err := fleetEngine(fleet, true)
		if err != nil {
			return err
		}
		run := func(mode core.PipelineMode) (*core.Response, error) {
			return eng.Execute(ctx, core.Request{
				Querier: q, SQL: benchJSONSQL, Kind: protocol.KindSAgg,
				SkipVerify: true, Pipeline: mode,
			})
		}
		barrier, err := measure(
			fmt.Sprintf("e2e_barrier/S_Agg/fleet=%d", fleet),
			iters, func() error {
				_, err := run(core.PipelineOff)
				return err
			})
		if err != nil {
			return err
		}
		report.Benchmarks = append(report.Benchmarks, barrier)

		var last *core.Response
		piped, err := measure(
			fmt.Sprintf("e2e_pipelined/S_Agg/fleet=%d", fleet),
			iters, func() error {
				resp, err := run(core.PipelineFull)
				last = resp
				return err
			})
		if err != nil {
			return err
		}
		report.Benchmarks = append(report.Benchmarks, piped)

		fmt.Fprintf(out, "fleet=%-8d barrier:   %10.2fms  %12.0f allocs/op\n",
			fleet, barrier.NsPerOp/1e6, barrier.AllocsPerOp)
		fmt.Fprintf(out, "fleet=%-8d pipelined: %10.2fms  %12.0f allocs/op  (%s vs barrier)\n",
			fleet, piped.NsPerOp/1e6, piped.AllocsPerOp, pctDelta(barrier.NsPerOp, piped.NsPerOp))
		if p := last.Pipeline; p != nil {
			fmt.Fprintf(out, "fleet=%-8d            speculated=%d adopted=%d wasted=%d\n",
				fleet, p.Speculated, p.Adopted, p.Wasted)
		}
		if c := last.Conformance; c != nil {
			fmt.Fprintf(out, "fleet=%-8d            tq_ratio=%.3f overlap=%v (predicted collection %v)\n",
				fleet, c.Ratio, c.PipelineOverlap, c.PredictedCollection)
			if c.Ratio < pipelineRatioLo || c.Ratio > pipelineRatioHi {
				return fmt.Errorf("pipelined tq_ratio %.3f outside [%g, %g] at fleet=%d",
					c.Ratio, pipelineRatioLo, pipelineRatioHi, fleet)
			}
		}
	}

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
