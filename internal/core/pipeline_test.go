package core

import (
	"context"
	"reflect"
	"testing"

	"github.com/trustedcells/tcq/internal/protocol"
)

// The streaming pipeline's contract: overlapping collection with the
// first aggregation step is a wall-clock optimization and nothing else.
// Rows, Metrics (recovery ledger included), journal and trace must be
// bit-identical across pipeline modes and fleet representations — the same determinism bar every other engine feature
// clears. Run under -race (check.sh's pipeline gate) this file doubles
// as the speculative executor's data-race gate.

// TestPipelineDeterminism sweeps all five protocols × packed/eager ×
// pipeline off/auto/full and requires every combination to produce the
// barrier baseline's exact observables.
func TestPipelineDeterminism(t *testing.T) {
	modes := []PipelineMode{PipelineOff, PipelineAuto, PipelineFull}
	for _, sc := range churnScenarios {
		t.Run(sc.kind.String(), func(t *testing.T) {
			runAt := func(packed bool, pm PipelineMode) queryOutcome {
				f := newFixture(t, 40, func(c *Config) { c.PackedFleet = packed })
				resp, err := f.eng.Execute(context.Background(), Request{
					Querier: f.q, SQL: sc.sql, Kind: sc.kind, Params: sc.params,
					QueryID: "pipe-det", Pipeline: pm,
				})
				if err != nil {
					t.Fatalf("packed=%v pipeline=%v: %v", packed, pm, err)
				}
				o := outcomeOf(t, resp)
				o.metrics.TLocal = 0 // mean of identical sums; float noise
				return o
			}
			base := runAt(false, PipelineOff)
			for _, packed := range []bool{false, true} {
				for _, pm := range modes {
					if !packed && pm == PipelineOff {
						continue // the baseline itself
					}
					got := runAt(packed, pm)
					if got.rows != base.rows {
						t.Errorf("packed=%v pipeline=%v: rows diverge\ngot:  %s\nwant: %s",
							packed, pm, got.rows, base.rows)
					}
					if !reflect.DeepEqual(got.metrics, base.metrics) {
						t.Errorf("packed=%v pipeline=%v: metrics diverge\ngot:  %+v\nwant: %+v",
							packed, pm, got.metrics, base.metrics)
					}
					if got.journal != base.journal {
						t.Errorf("packed=%v pipeline=%v: journals diverge", packed, pm)
					}
					if got.trace != base.trace {
						t.Errorf("packed=%v pipeline=%v: traces diverge", packed, pm)
					}
				}
			}
		})
	}
}

// TestPipelineAdoption pins the mechanism on the honest path: a pipelined
// S_Agg run speculates every full deposit-order window and — because
// settle waits out every window and adoption is decided by content, not
// timing — adopts all of them.
func TestPipelineAdoption(t *testing.T) {
	f := newFixture(t, 40, nil)
	want := f.reference(t, flagshipSQL)
	resp, err := f.eng.Execute(context.Background(), Request{
		Querier: f.q, SQL: flagshipSQL, Kind: protocol.KindSAgg,
		Params: protocol.Params{PartitionTuples: 4}, Pipeline: PipelineFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, resp.Result, want)
	p := resp.Pipeline
	if p == nil {
		t.Fatal("pipelined run returned no PipelineReport")
	}
	if p.Mode != PipelineFull || !p.Active {
		t.Fatalf("report = %+v, want active PipelineFull", p)
	}
	if p.Speculated == 0 {
		t.Fatal("PipelineFull speculated nothing")
	}
	if p.Adopted+p.Wasted != p.Speculated {
		t.Fatalf("inconsistent account: %+v", p)
	}
	if p.Adopted != p.Speculated {
		t.Errorf("honest run adopted %d of %d speculated windows; want all", p.Adopted, p.Speculated)
	}
}

// TestPipelineTaggedAdoption exercises the per-tag chunk speculation of
// the noise/histogram protocols. Untagged dummies are sprinkled into the
// canonical partitions, so not every chunk is adoptable — the account
// must still balance and the answer must match the barrier run.
func TestPipelineTaggedAdoption(t *testing.T) {
	run := func(pm PipelineMode) (*Response, *fixture) {
		f := newFixture(t, 40, nil)
		resp, err := f.eng.Execute(context.Background(), Request{
			Querier: f.q, SQL: flagshipSQL, Kind: protocol.KindCNoise,
			Params: protocol.Params{PartitionTuples: 4}, Pipeline: pm,
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp, f
	}
	barrier, _ := run(PipelineOff)
	piped, _ := run(PipelineFull)
	if !reflect.DeepEqual(sortedRows(piped.Result), sortedRows(barrier.Result)) {
		t.Errorf("rows diverge:\npiped:   %v\nbarrier: %v",
			sortedRows(piped.Result), sortedRows(barrier.Result))
	}
	p := piped.Pipeline
	if p == nil || !p.Active {
		t.Fatalf("report = %+v, want active", p)
	}
	if p.Adopted+p.Wasted != p.Speculated {
		t.Fatalf("inconsistent account: %+v", p)
	}
	if b := barrier.Pipeline; b == nil || b.Active || b.Speculated != 0 {
		t.Fatalf("barrier report = %+v, want inactive and empty", b)
	}
}

// TestPipelineModeResolution pins the Request → Config → off chain and
// the report's resolved mode.
func TestPipelineModeResolution(t *testing.T) {
	run := func(cfgMode, reqMode PipelineMode) *PipelineReport {
		f := newFixture(t, 12, func(c *Config) { c.Pipeline = cfgMode })
		resp, err := f.eng.Execute(context.Background(), Request{
			Querier: f.q, SQL: basicConsumerSQL, Kind: protocol.KindBasic,
			Pipeline: reqMode,
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Pipeline == nil {
			t.Fatal("no PipelineReport")
		}
		return resp.Pipeline
	}
	if p := run(PipelineDefault, PipelineDefault); p.Mode != PipelineOff || p.Active {
		t.Errorf("zero config, zero request: %+v, want inactive off", p)
	}
	if p := run(PipelineFull, PipelineDefault); p.Mode != PipelineFull || !p.Active {
		t.Errorf("config full, zero request: %+v, want active full", p)
	}
	if p := run(PipelineFull, PipelineOff); p.Mode != PipelineOff || p.Active {
		t.Errorf("request off must override config full: %+v", p)
	}
	if p := run(PipelineOff, PipelineFull); p.Mode != PipelineFull || !p.Active {
		t.Errorf("request full must override config off: %+v", p)
	}
}

// TestPipelineAuditReplicasGate: with audit replicas voting over several
// devices, which device computes a partition is observable — speculation
// must refuse to arm, and the run must still verify and answer.
func TestPipelineAuditReplicasGate(t *testing.T) {
	f := newFixture(t, 40, func(c *Config) { c.AuditReplicas = 3 })
	want := f.reference(t, flagshipSQL)
	resp, err := f.eng.Execute(context.Background(), Request{
		Querier: f.q, SQL: flagshipSQL, Kind: protocol.KindSAgg,
		Params: protocol.Params{PartitionTuples: 4}, Pipeline: PipelineFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, resp.Result, want)
	if p := resp.Pipeline; p == nil || p.Active || p.Speculated != 0 {
		t.Fatalf("report = %+v, want inactive under audit replicas", p)
	}
}

// TestPipelineConformanceBand is the regression check behind check.sh's
// conformance gate: the pipelined run's measured/predicted T_Q ratio must
// stay in the [0.25, 5] band, the model must expose a positive overlap
// bound capped by the predicted collection phase, and the whole report
// must equal the barrier run's (the accounting is pipeline-blind).
func TestPipelineConformanceBand(t *testing.T) {
	run := func(pm PipelineMode) *ConformanceReport {
		f := newFixture(t, 40, nil)
		resp, err := f.eng.Execute(context.Background(), Request{
			Querier: f.q, SQL: flagshipSQL, Kind: protocol.KindSAgg,
			QueryID: "pipe-conf", Pipeline: pm,
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Conformance == nil {
			t.Fatal("no conformance report")
		}
		return resp.Conformance
	}
	piped := run(PipelineFull)
	if piped.Ratio < 0.25 || piped.Ratio > 5 {
		t.Errorf("pipelined tq_ratio %.3f out of [0.25, 5]:\n%s", piped.Ratio, piped)
	}
	if piped.PipelineOverlap <= 0 {
		t.Errorf("predicted pipeline overlap %v, want > 0", piped.PipelineOverlap)
	}
	if piped.PipelineOverlap > piped.PredictedCollection {
		t.Errorf("overlap %v exceeds predicted collection %v",
			piped.PipelineOverlap, piped.PredictedCollection)
	}
	barrier := run(PipelineOff)
	if !reflect.DeepEqual(piped, barrier) {
		t.Errorf("conformance reports diverge across modes:\npiped:   %+v\nbarrier: %+v",
			piped, barrier)
	}
}
