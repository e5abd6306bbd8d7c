package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/trustedcells/tcq/internal/core"
	"github.com/trustedcells/tcq/internal/sqlexec"
	"github.com/trustedcells/tcq/internal/sqlparse"
	"github.com/trustedcells/tcq/internal/storage"
	"github.com/trustedcells/tcq/internal/workload"
)

// avgTolerance is the relative error allowed on an AVG: the protocols
// sum the same values in another order than the plaintext reference.
const avgTolerance = 1e-9

// oracle holds the answers a workload's queries are checked against.
// Smart-meter answers come from sqlexec.Standalone, the repository's
// plaintext executor, run over the same generated databases the fleet
// holds. health-churn runs under churn and a SIZE window, so it checks
// invariants instead of one fixed answer.
type oracle struct {
	averages map[string]float64 // flagship AVG per district
	rows     []string           // Basic rows, sorted, as a multiset

	regions map[string]bool // health-churn group domain
	visits  int             // Visit rows per patient
}

// smartMeterOracle runs the flagship and the Basic query in plaintext
// over the databases the workload's fleet is provisioned with.
func smartMeterOracle(w *workloadDef, seed int64) (*oracle, error) {
	cfg, populate := w.config(seed)
	dbs := make([]*storage.LocalDB, w.fleet)
	for i := range dbs {
		dbs[i] = populate(i)
	}
	res, err := standalone(cfg.Schema, flagshipSQL, dbs)
	if err != nil {
		return nil, err
	}
	ref := &oracle{averages: make(map[string]float64, len(res.Rows))}
	for _, r := range res.Rows {
		v, err := r[1].AsFloat()
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		ref.averages[r[0].AsString()] = v
	}
	if res, err = standalone(cfg.Schema, basicSQL, dbs); err != nil {
		return nil, err
	}
	ref.rows = rowKeys(res)
	return ref, nil
}

func standalone(schema *storage.Schema, sql string, dbs []*storage.LocalDB) (*sqlexec.Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	plan, err := sqlexec.Compile(stmt, schema)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return sqlexec.Standalone(plan, dbs...)
}

// rowKeys renders a result's rows as sorted strings, for multiset
// comparison.
func rowKeys(res *sqlexec.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.Key()
	}
	sort.Strings(out)
	return out
}

// checkAverages compares a (district, AVG) result with the reference:
// the same districts, each AVG within avgTolerance.
func (o *oracle) checkAverages(res *sqlexec.Result) error {
	if res == nil {
		return fmt.Errorf("oracle: no result")
	}
	if len(res.Rows) != len(o.averages) {
		return fmt.Errorf("oracle: %d groups, reference has %d", len(res.Rows), len(o.averages))
	}
	seen := make(map[string]bool, len(res.Rows))
	for _, r := range res.Rows {
		if len(r) != 2 {
			return fmt.Errorf("oracle: row %v has %d columns, want 2", r, len(r))
		}
		g := r[0].AsString()
		want, ok := o.averages[g]
		if !ok || seen[g] {
			return fmt.Errorf("oracle: unexpected or repeated group %q", g)
		}
		seen[g] = true
		got, err := r[1].AsFloat()
		if err != nil {
			return fmt.Errorf("oracle: group %q: %w", g, err)
		}
		if math.Abs(got-want) > avgTolerance*math.Abs(want) {
			return fmt.Errorf("oracle: group %q AVG %v, reference %v", g, got, want)
		}
	}
	return nil
}

// checkRows compares a Basic result with the reference as a multiset.
func (o *oracle) checkRows(res *sqlexec.Result) error {
	if res == nil {
		return fmt.Errorf("oracle: no result")
	}
	got := rowKeys(res)
	if len(got) != len(o.rows) {
		return fmt.Errorf("oracle: %d rows, reference has %d", len(got), len(o.rows))
	}
	for i := range got {
		if got[i] != o.rows[i] {
			return fmt.Errorf("oracle: row %q not in the reference (first difference at %d)", got[i], i)
		}
	}
	return nil
}

// checkHealth checks the invariants of a churned, SIZE-bounded
// (region, COUNT(*), AVG) run: every deposited token contributed exactly
// its Visit rows, the collection account does not exceed the eligible
// fleet, and every group lies in the region domain.
func (o *oracle) checkHealth(resp *core.Response) error {
	if resp.Result == nil {
		return fmt.Errorf("oracle: no result")
	}
	m := resp.Metrics
	var total int64
	for _, r := range resp.Result.Rows {
		if len(r) != 3 {
			return fmt.Errorf("oracle: row %v has %d columns, want 3", r, len(r))
		}
		if !o.regions[r[0].AsString()] {
			return fmt.Errorf("oracle: group %q outside the region domain", r[0].AsString())
		}
		n, err := r[1].AsInt()
		if err != nil {
			return fmt.Errorf("oracle: group %q: %w", r[0].AsString(), err)
		}
		total += n
	}
	if want := int64(o.visits) * int64(m.DepositedDevices); total != want {
		return fmt.Errorf("oracle: sum of COUNT(*) is %d, want %d visits x %d deposited tokens",
			total, o.visits, m.DepositedDevices)
	}
	accounted := m.DepositedDevices + m.OfflineDevices + m.DroppedDeposits + m.CorruptDeposits + m.CollectErrors
	if accounted > m.EligibleDevices {
		return fmt.Errorf("oracle: %d tokens accounted (deposited %d, offline %d, dropped %d, corrupt %d, errors %d), only %d eligible",
			accounted, m.DepositedDevices, m.OfflineDevices, m.DroppedDeposits, m.CorruptDeposits,
			m.CollectErrors, m.EligibleDevices)
	}
	return nil
}

// checkIntegrity holds for every workload: verification ran and the SSI
// was caught in no violation.
func checkIntegrity(resp *core.Response) error {
	in := resp.Integrity
	if in == nil || !in.Verified {
		return fmt.Errorf("oracle: verification did not run")
	}
	if in.Violations != 0 {
		return fmt.Errorf("oracle: %d integrity violations", in.Violations)
	}
	return nil
}

// sameRows reports whether two results hold the same rows as multisets.
func sameRows(a, b *sqlexec.Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	return strings.Join(rowKeys(a), "\n") == strings.Join(rowKeys(b), "\n")
}

// healthRegions is the region domain of the health workload.
func healthRegions(seed int64) map[string]bool {
	w := workload.DefaultHealth(seed)
	out := make(map[string]bool, w.Regions)
	for r := 0; r < w.Regions; r++ {
		out[workload.RegionName(r)] = true
	}
	return out
}
