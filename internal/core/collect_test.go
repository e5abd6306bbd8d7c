package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/obs"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/querier"
)

// runCollection builds a fresh fixture and runs one query through it,
// returning the run's metrics. runQuery checks the collection account.
func runCollection(t *testing.T, fleet int, edit func(*Config),
	sql string, kind protocol.Kind, params protocol.Params) *Metrics {
	t.Helper()
	f := newFixture(t, fleet, edit)
	_, m, err := runQuery(f.eng, f.q, sql, kind, params)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCollection runs every protocol through the collection walk and
// requires it to gather true tuples from the whole fleet.
func TestCollection(t *testing.T) {
	agg := `SELECT C.district, AVG(P.cons) FROM Power P, Consumer C
	        WHERE C.cid = P.cid GROUP BY C.district`
	cases := []struct {
		kind   protocol.Kind
		sql    string
		params protocol.Params
	}{
		{protocol.KindBasic, `SELECT C.cid, C.district FROM Consumer C`, protocol.Params{}},
		{protocol.KindSAgg, agg, protocol.Params{}},
		{protocol.KindRnfNoise, agg, protocol.Params{Nf: 2}},
		{protocol.KindCNoise, agg, protocol.Params{}},
		{protocol.KindEDHist, agg, protocol.Params{}},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			m := runCollection(t, 40, nil, tc.sql, tc.kind, tc.params)
			if m.TrueTuples == 0 {
				t.Error("no true tuples collected; test is vacuous")
			}
			if m.DepositedDevices != 40 || m.NotReached != 0 {
				t.Errorf("deposited %d, not reached %d; want the whole fleet of 40",
					m.DepositedDevices, m.NotReached)
			}
		})
	}
}

// TestCollectionSizeCap hits the SIZE cutoff: the SSI must stop accepting
// at exactly the seventh tuple, and the devices the walk never visited
// are accounted as not reached.
func TestCollectionSizeCap(t *testing.T) {
	m := runCollection(t, 40, nil, `SELECT C.cid, C.district FROM Consumer C SIZE 7`,
		protocol.KindBasic, protocol.Params{})
	if m.Nt != 7 {
		t.Errorf("Nt = %d, want exactly 7 (SIZE clause)", m.Nt)
	}
	if m.NotReached == 0 {
		t.Error("SIZE 7 cut the walk short, but no device is accounted as not reached")
	}
}

// TestCollectionDuration exercises the non-zero ConnectionInterval path,
// where the DURATION window cuts collection short.
func TestCollectionDuration(t *testing.T) {
	edit := func(c *Config) { c.ConnectionInterval = time.Minute }
	m := runCollection(t, 40, edit, `SELECT COUNT(*) FROM Consumer SIZE DURATION '9m'`,
		protocol.KindSAgg, protocol.Params{})
	// 9 minutes at one connection per minute: the window genuinely bound
	// how much of the fleet answered.
	if m.Nt == 0 || m.Nt >= 40 {
		t.Errorf("Nt = %d, want a DURATION-bounded slice of the fleet", m.Nt)
	}
	if m.NotReached == 0 {
		t.Error("the DURATION window closed early, but no device is accounted as not reached")
	}
}

// TestCollectionWithErrors mixes collect errors into the walk: revoked
// devices are refused without spending a connection slot, and each is
// counted exactly once.
func TestCollectionWithErrors(t *testing.T) {
	f := newFixture(t, 30, func(c *Config) { c.ConnectionInterval = 30 * time.Second })
	if err := f.eng.RevokeAndRotate("tds-00003", "tds-00011", "tds-00020"); err != nil {
		t.Fatal(err)
	}
	// Re-key the querier to the rotated ring.
	cred := f.eng.Authority().Issue("edf", []string{"energy-analyst", "auditor"},
		time.Unix(1700000000, 0).Add(365*24*time.Hour))
	q, err := querier.New("edf", f.eng.K1(), cred, f.eng.Schema())
	if err != nil {
		t.Fatal(err)
	}
	_, m, err := runQuery(f.eng, q, `SELECT COUNT(*) FROM Power`, protocol.KindSAgg, protocol.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if m.CollectErrors != 3 {
		t.Errorf("CollectErrors = %d, want 3 (the revoked devices)", m.CollectErrors)
	}

	// One revoked device at each position of the walk. The walk order is
	// a pure function of the engine seed and the pinned query ID, so a
	// revocation-free run's deposit events give the order every revoked
	// run follows. A device past the SIZE cap is never visited: it counts
	// as not reached, not as a collect error.
	const fleet, qid = 30, "walk-revoke"
	edit := func(c *Config) { c.ConnectionInterval = 30 * time.Second }
	execute := func(f *fixture, q *querier.Querier, sql string) *Response {
		t.Helper()
		resp, err := f.eng.Execute(context.Background(), Request{
			Querier: q, SQL: sql, Kind: protocol.KindSAgg, QueryID: qid})
		if err != nil {
			t.Fatal(err)
		}
		if err := checkAccount(resp.Metrics); err != nil {
			t.Error(err)
		}
		return resp
	}
	walk := func(sql string) []string {
		t.Helper()
		f := newFixture(t, fleet, edit)
		var ids []string
		execute(f, f.q, sql).Trace.Walk(func(s *obs.Span) {
			for _, e := range s.Events {
				if e.Name == "deposit" {
					ids = append(ids, e.Device)
				}
			}
		})
		return ids
	}
	const fullSQL = `SELECT COUNT(*) FROM Power`
	const cappedSQL = `SELECT COUNT(*) FROM Power SIZE 25`
	full, capped := walk(fullSQL), walk(cappedSQL)
	if len(full) != fleet {
		t.Fatalf("clean walk deposited %d devices, want %d", len(full), fleet)
	}
	if len(capped) < 2 || len(capped) >= fleet {
		t.Fatalf("SIZE 25 stopped the walk after %d devices; want a cap inside the fleet", len(capped))
	}
	if !reflect.DeepEqual(capped, full[:len(capped)]) {
		t.Fatalf("capped walk %v is not a prefix of the clean walk %v", capped, full)
	}
	cases := []struct {
		name                         string
		sql                          string
		revoke                       string
		collectErrors, notReached, k int
	}{
		{"first", fullSQL, full[0], 1, 0, fleet - 1},
		{"middle", fullSQL, full[fleet/2], 1, 0, fleet - 1},
		{"last", fullSQL, full[fleet-1], 1, 0, fleet - 1},
		{"after-size-cap", cappedSQL, full[len(capped)], 0, fleet - len(capped), len(capped)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, fleet, edit)
			if err := f.eng.RevokeAndRotate(tc.revoke); err != nil {
				t.Fatal(err)
			}
			m := execute(f, newQuerierForEngine(t, f.eng, "edf"), tc.sql).Metrics
			if m.CollectErrors != tc.collectErrors || m.NotReached != tc.notReached ||
				m.DepositedDevices != tc.k {
				t.Errorf("revoked %s: collect errors %d, not reached %d, deposited %d; want %d, %d, %d",
					tc.revoke, m.CollectErrors, m.NotReached, m.DepositedDevices,
					tc.collectErrors, tc.notReached, tc.k)
			}
		})
	}
}

// sanity check for the fixture IDs used above
func TestFixtureDeviceNaming(t *testing.T) {
	f := newFixture(t, 5, nil)
	if got := f.eng.FleetSize(); got != 5 {
		t.Fatalf("fleet size = %d", got)
	}
	if id := fmt.Sprintf("tds-%05d", 3); id != "tds-00003" {
		t.Fatalf("unexpected ID form %s", id)
	}
}
