package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/ssi"
)

// ssiScript wraps one misbehavior into a fault plan that scripts no device
// churn: every deviation from the honest run is the SSI's doing.
func ssiScript(persistent bool, bs ...faultplan.SSIMisbehavior) *faultplan.Plan {
	return &faultplan.Plan{
		Seed: 21,
		SSI:  &faultplan.SSIScript{Behaviors: bs, Persistent: persistent},
	}
}

// TestIntegrityHonestPathNoFalsePositives runs every protocol through the
// reference churn plan with verification on (the default) and requires a
// clean bill: checks ran, nothing was flagged, and the result equals the
// unverified run's bit for bit. Zero false positives is the contract that
// lets verification default to on. It holds at any degree of real
// parallelism: workers is GOMAXPROCS, the OS threads the aggregation
// phase's goroutines run on.
func TestIntegrityHonestPathNoFalsePositives(t *testing.T) {
	for _, sc := range churnScenarios {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%v/workers=%d", sc.kind, workers), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
				run := func(skip bool) (*Response, error) {
					f := newFixture(t, 40, nil)
					return f.eng.Execute(context.Background(), Request{
						Querier: f.q, SQL: sc.sql, Kind: sc.kind, Params: sc.params,
						Faults: churnPlan(), SkipVerify: skip,
					})
				}
				verified, err := run(false)
				if err != nil {
					t.Fatalf("verified run failed: %v", err)
				}
				rep := verified.Integrity
				if rep == nil || !rep.Verified {
					t.Fatal("verified run returned no integrity report")
				}
				if rep.Violations != 0 || rep.Quarantines != 0 || rep.Recovered != 0 {
					t.Fatalf("honest SSI flagged: %+v", rep)
				}
				if rep.Checks == 0 || rep.Deposits == 0 || rep.Phases == 0 {
					t.Fatalf("verification did not run: %+v", rep)
				}
				if len(rep.Digest) == 0 {
					t.Fatal("verified run produced no digest")
				}
				if m := verified.Metrics; m.IntegrityChecks != rep.Checks || m.IntegrityViolations != 0 {
					t.Fatalf("metrics disagree with report: checks=%d violations=%d, report %+v",
						m.IntegrityChecks, m.IntegrityViolations, rep)
				}

				unverified, err := run(true)
				if err != nil {
					t.Fatalf("unverified run failed: %v", err)
				}
				if unverified.Integrity != nil {
					t.Fatal("SkipVerify still produced an integrity report")
				}
				if !reflect.DeepEqual(sortedRows(verified.Result), sortedRows(unverified.Result)) {
					t.Errorf("verification changed the result:\nverified:   %v\nunverified: %v",
						sortedRows(verified.Result), sortedRows(unverified.Result))
				}
			})
		}
	}
}

// TestAdversaryChaosSweep is the no-silent-wrong-answer theorem, checked by
// sweep: every protocol × every scripted SSI misbehavior either returns
// the bit-identical honest result (detection + recovery) or fails with the
// typed misbehavior error — never a quietly skewed answer.
func TestAdversaryChaosSweep(t *testing.T) {
	for _, sc := range churnScenarios {
		// The honest reference: same fault seed, no SSI script.
		f := newFixture(t, 20, nil)
		resp, err := f.eng.Execute(context.Background(), Request{
			Querier: f.q, SQL: sc.sql, Kind: sc.kind, Params: sc.params,
			Faults: &faultplan.Plan{Seed: 21},
		})
		if err != nil {
			t.Fatalf("%v: honest reference failed: %v", sc.kind, err)
		}
		honest := sortedRows(resp.Result)

		for _, b := range faultplan.SSIMisbehaviors() {
			sc, b := sc, b
			t.Run(fmt.Sprintf("%v/%s", sc.kind, b), func(t *testing.T) {
				f := newFixture(t, 20, nil)
				resp, err := f.eng.Execute(context.Background(), Request{
					Querier: f.q, SQL: sc.sql, Kind: sc.kind, Params: sc.params,
					Faults: ssiScript(false, b),
				})
				if resp == nil {
					t.Fatalf("no response at all (err=%v)", err)
				}
				var rep IntegrityReport
				if resp.Integrity != nil {
					rep = *resp.Integrity
				}
				var rows []string
				if resp.Result != nil {
					rows = sortedRows(resp.Result)
				}
				ledger := resp.Metrics.Ledger

				switch {
				case b == faultplan.SSIForgeCoverage:
					// The tuples are gone before the engine can notice; the
					// only sound outcome is a typed abort at the collection
					// check.
					var mis *ErrSSIMisbehavior
					if !errors.As(err, &mis) {
						t.Fatalf("forged coverage not detected: err=%v rows=%v", err, rows)
					}
					if mis.Kind != "covering-count" || mis.Phase != "collection" {
						t.Errorf("detection = %+v, want covering-count in collection", mis)
					}
					if rows != nil {
						t.Errorf("aborted run still returned rows: %v", rows)
					}
					if rep.Violations == 0 {
						t.Errorf("abort reported no violation: %+v", rep)
					}
					assertLedgerHas(t, ledger, "integrity-violation", "collection")
					assertLedgerHas(t, ledger, "query-abort", "ssi-misbehavior")

				case b == faultplan.SSIReplayStalePartition && sc.kind == protocol.KindBasic:
					// Basic has a single partition build, so there is no
					// stale material to replay: the attack never fires and
					// the run must be indistinguishable from honest.
					if err != nil {
						t.Fatalf("no-op replay still failed: %v", err)
					}
					if !reflect.DeepEqual(rows, honest) {
						t.Errorf("rows diverge from honest:\ngot:  %v\nwant: %v", rows, honest)
					}
					if rep.Violations != 0 {
						t.Errorf("no-op replay was flagged: %+v", rep)
					}

				default:
					// Tampered partition builds: detected, quarantined, and
					// recovered from the SSI's stashed honest build — the
					// result must equal the honest run bit for bit.
					if err != nil {
						t.Fatalf("recoverable attack aborted the run: %v", err)
					}
					if !reflect.DeepEqual(rows, honest) {
						t.Errorf("recovered rows diverge from honest:\ngot:  %v\nwant: %v", rows, honest)
					}
					if rep.Violations == 0 || rep.Quarantines == 0 {
						t.Errorf("attack went undetected: %+v", rep)
					}
					if rep.Recovered != rep.Quarantines {
						t.Errorf("quarantined %d builds but recovered %d",
							rep.Quarantines, rep.Recovered)
					}
					assertLedgerHas(t, ledger, "integrity-quarantine", "")
					assertLedgerHas(t, ledger, "integrity-recovered", "")
				}
			})
		}
	}
}

// TestIntegrityPersistentAdversaryAborts scripts an adversary that tampers
// with the quarantine retry too: graceful degradation has nowhere left to
// go, so the run must fail with the typed partition error, visibly.
func TestIntegrityPersistentAdversaryAborts(t *testing.T) {
	f := newFixture(t, 20, nil)
	resp, err := f.eng.Execute(context.Background(), Request{
		Querier: f.q, SQL: flagshipSQL, Kind: protocol.KindSAgg,
		Params: protocol.Params{PartitionTuples: 4},
		Faults: ssiScript(true, faultplan.SSIDropTuple),
	})
	var mis *ErrSSIMisbehavior
	if !errors.As(err, &mis) {
		t.Fatalf("err = %v, want ErrSSIMisbehavior", err)
	}
	if mis.Kind != "partition-multiset" {
		t.Errorf("detection kind = %q, want partition-multiset", mis.Kind)
	}
	if resp == nil {
		t.Fatal("abort returned no response")
	}
	if resp.Result != nil {
		t.Fatal("failed run still returned rows")
	}
	rep := resp.Integrity
	if rep == nil || rep.Quarantines == 0 || rep.Recovered != 0 {
		t.Fatalf("degradation path not exercised: %+v", rep)
	}
	assertLedgerHas(t, resp.Metrics.Ledger, "integrity-quarantine", "")
	assertLedgerHas(t, resp.Metrics.Ledger, "query-abort", "ssi-misbehavior")
	assertRegistryHas(t, f.eng, `tcq_queries_failed_total{reason="ssi-misbehavior"} 1`)
	assertRegistryHas(t, f.eng, `tcq_integrity_events_total{kind="quarantine"}`)
}

// TestIntegritySizeTruncationVerifies caps the covering result at every
// small SIZE: the cap routinely cuts mid-deposit, the device re-commits to
// the accepted prefix, and verification must still pass with zero
// violations — the truncation path may not read as tampering.
func TestIntegritySizeTruncationVerifies(t *testing.T) {
	for size := 1; size <= 8; size++ {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			f := newFixture(t, 20, nil)
			sql := fmt.Sprintf(`SELECT P.cid, P.period FROM Power P SIZE %d TUPLES`, size)
			resp, err := f.eng.Execute(context.Background(), Request{
				Querier: f.q, SQL: sql, Kind: protocol.KindBasic,
			})
			if err != nil {
				t.Fatalf("SIZE %d run failed: %v", size, err)
			}
			if resp.Metrics.Nt != int64(size) {
				t.Fatalf("Nt = %d, want the SIZE cap %d", resp.Metrics.Nt, size)
			}
			rep := resp.Integrity
			if rep == nil || rep.Violations != 0 {
				t.Fatalf("truncated collection misread as tampering: %+v", rep)
			}
			if len(rep.Digest) == 0 {
				t.Fatal("truncated run produced no digest")
			}
		})
	}
}

// TestAbortCoverageFloorObservability pins the error-path plumbing for a
// coverage-floor abort: the Response still carries metrics, ledger and a
// well-formed trace, and the failure lands in the cumulative registry.
func TestAbortCoverageFloorObservability(t *testing.T) {
	f := newFixture(t, 40, nil)
	resp, err := f.eng.Execute(context.Background(), Request{
		Querier: f.q, SQL: flagshipSQL, Kind: protocol.KindSAgg,
		Params: protocol.Params{PartitionTuples: 4},
		Faults: &faultplan.Plan{Seed: 2, OfflineFraction: 0.9, CoverageFloor: 0.5},
	})
	if !errors.Is(err, ErrCoverageBelowFloor) {
		t.Fatalf("err = %v, want ErrCoverageBelowFloor", err)
	}
	if resp == nil {
		t.Fatal("abort returned no response")
	}
	if resp.Result != nil {
		t.Fatal("failed run still returned rows")
	}
	if resp.Metrics == nil || resp.Metrics.CoverageRatio >= 0.5 {
		t.Fatalf("abort metrics do not show the failing coverage: %+v", resp.Metrics)
	}
	assertLedgerHas(t, resp.Metrics.Ledger, "query-abort", "coverage-floor")
	if resp.Trace == nil {
		t.Fatal("abort returned no trace")
	}
	var buf bytes.Buffer
	if err := resp.Trace.WriteJSONL(&buf); err != nil {
		t.Fatalf("abort trace does not serialize: %v", err)
	}
	assertRegistryHas(t, f.eng, `tcq_queries_failed_total{reason="coverage-floor"} 1`)
}

// fuseCtx is live for the first `fuse` Err checks and canceled after: it
// trips a deterministic mid-run cancellation, after execution has started,
// which a pre-canceled context cannot reach.
type fuseCtx struct {
	context.Context
	calls, fuse int
}

func (c *fuseCtx) Err() error {
	c.calls++
	if c.calls > c.fuse {
		return context.Canceled
	}
	return nil
}

// TestAbortTimeoutObservability cancels the context mid-collection and
// requires the same full observability as any other abort: typed error,
// settled metrics, abort ledger entry, failure counter.
func TestAbortTimeoutObservability(t *testing.T) {
	f := newFixture(t, 20, nil)
	resp, err := f.eng.Execute(&fuseCtx{Context: context.Background(), fuse: 3}, Request{
		Querier: f.q, SQL: flagshipSQL, Kind: protocol.KindSAgg,
		Params: protocol.Params{PartitionTuples: 4},
	})
	if !errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("err = %v, want ErrQueryTimeout", err)
	}
	if resp == nil {
		t.Fatal("mid-run cancellation returned no response; it should abort, not vanish")
	}
	if resp.Result != nil {
		t.Fatal("canceled run still returned rows")
	}
	assertLedgerHas(t, resp.Metrics.Ledger, "query-abort", "timeout")
	if resp.Trace == nil {
		t.Fatal("canceled run returned no trace")
	}
	assertRegistryHas(t, f.eng, `tcq_queries_failed_total{reason="timeout"} 1`)
}

// assertLedgerHas requires one recovery-ledger entry of the given kind (and
// phase, when non-empty).
func assertLedgerHas(t *testing.T, ledger []ssi.LedgerEntry, kind, phase string) {
	t.Helper()
	for _, le := range ledger {
		if le.Kind == kind && (phase == "" || le.Phase == phase) {
			return
		}
	}
	t.Errorf("ledger has no %s/%s entry: %+v", kind, phase, ledger)
}

// assertRegistryHas requires the engine's cumulative registry to render a
// line containing want.
func assertRegistryHas(t *testing.T, e *Engine, want string) {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), want) {
		t.Errorf("registry is missing %q:\n%s", want, buf.String())
	}
}
