package core

import (
	"context"
	"fmt"

	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/querier"
	"github.com/trustedcells/tcq/internal/sqlexec"
)

// Test-side spellings of the common Execute shapes. They replace the
// removed Run / RunTargeted / CollectOnce wrappers in call sites that only
// care about rows and metrics; tests exercising traces, faults or
// cancellation call Execute directly. Every successful run is checked
// against the collection account.

func runQuery(e *Engine, q *querier.Querier, sql string, kind protocol.Kind,
	params protocol.Params) (*sqlexec.Result, *Metrics, error) {
	resp, err := e.Execute(context.Background(), Request{
		Querier: q, SQL: sql, Kind: kind, Params: params})
	if err != nil {
		return nil, nil, err
	}
	return resp.Result, resp.Metrics, checkAccount(resp.Metrics)
}

func runTargeted(e *Engine, q *querier.Querier, sql string, kind protocol.Kind,
	params protocol.Params, targets []string) (*sqlexec.Result, *Metrics, error) {
	resp, err := e.Execute(context.Background(), Request{
		Querier: q, SQL: sql, Kind: kind, Params: params, Targets: targets})
	if err != nil {
		return nil, nil, err
	}
	return resp.Result, resp.Metrics, checkAccount(resp.Metrics)
}

func collectOnce(e *Engine, q *querier.Querier, sql string, kind protocol.Kind,
	params protocol.Params) (*Metrics, error) {
	resp, err := e.Execute(context.Background(), Request{
		Querier: q, SQL: sql, Kind: kind, Params: params, CollectOnly: true})
	if err != nil {
		return nil, err
	}
	return resp.Metrics, checkAccount(resp.Metrics)
}

// checkAccount asserts the collection accounting invariant: every eligible
// device lands in exactly one terminal bucket.
func checkAccount(m *Metrics) error {
	if gap := m.accountingGap(); gap != 0 {
		return fmt.Errorf("collection account off by %d: %d eligible, deposited %d, offline %d, "+
			"dropped %d, corrupt %d, rejected %d, collect errors %d, not reached %d",
			gap, m.EligibleDevices, m.DepositedDevices, m.OfflineDevices, m.DroppedDeposits,
			m.CorruptDeposits, m.RejectedDeposits, m.CollectErrors, m.NotReached)
	}
	return nil
}
