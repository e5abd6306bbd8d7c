package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"
)

// TestPipelineDeterminism pins the query pipeline's determinism contract:
// collection, aggregation and filtering run one after the other (Fig. 2),
// so rows, Metrics (recovery ledger included), journal and trace bytes
// depend only on the fleet and the request. For all five protocols a
// repeated eager run, a packed run and packed runs at GOMAXPROCS 1 and 4
// must all reproduce the first eager run exactly.
func TestPipelineDeterminism(t *testing.T) {
	variants := []struct {
		name   string
		packed bool
		procs  int // 0 keeps the current GOMAXPROCS
	}{
		{"eager-repeat", false, 0},
		{"packed", true, 0},
		{"packed-procs=1", true, 1},
		{"packed-procs=4", true, 4},
	}
	for _, sc := range churnScenarios {
		t.Run(sc.kind.String(), func(t *testing.T) {
			runAt := func(packed bool, procs int) queryOutcome {
				if procs > 0 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				}
				f := newFixture(t, 40, func(c *Config) { c.PackedFleet = packed })
				resp, err := f.eng.Execute(context.Background(), Request{
					Querier: f.q, SQL: sc.sql, Kind: sc.kind, Params: sc.params,
					QueryID: "pipe-det",
				})
				if err != nil {
					t.Fatalf("packed=%v procs=%d: %v", packed, procs, err)
				}
				o := outcomeOf(t, resp)
				o.metrics.TLocal = 0 // mean of identical sums; float noise
				return o
			}
			base := runAt(false, 0)
			for _, v := range variants {
				got := runAt(v.packed, v.procs)
				if got.rows != base.rows {
					t.Errorf("%s: rows diverge\ngot:  %s\nwant: %s", v.name, got.rows, base.rows)
				}
				if !reflect.DeepEqual(got.metrics, base.metrics) {
					t.Errorf("%s: metrics diverge\ngot:  %+v\nwant: %+v", v.name, got.metrics, base.metrics)
				}
				if got.journal != base.journal {
					t.Errorf("%s: journals diverge", v.name)
				}
				if got.trace != base.trace {
					t.Errorf("%s: traces diverge", v.name)
				}
			}
		})
	}
}
