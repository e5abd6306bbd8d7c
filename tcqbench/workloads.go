package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"github.com/trustedcells/tcq/internal/accessctl"
	"github.com/trustedcells/tcq/internal/core"
	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/obs"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/querier"
	"github.com/trustedcells/tcq/internal/storage"
	"github.com/trustedcells/tcq/internal/tdscrypto"
	"github.com/trustedcells/tcq/internal/workload"
)

// The paper's flagship S_Agg query (Section 2.3) over the whole fleet,
// and the Basic row query of the tenant mix.
const (
	flagshipSQL = `SELECT C.district, AVG(P.cons) FROM Power P, Consumer C ` +
		`WHERE C.accommodation = 'detached house' AND C.cid = P.cid GROUP BY C.district`
	basicSQL = `SELECT P.cid, P.cons FROM Power P WHERE P.cons > 55`
)

// workloadDef is one named workload: how to provision its fleet, how to
// compute its reference answers, and how to issue and check its queries.
// Sizes are fields so the self-tests can run every workload small.
type workloadDef struct {
	name    string
	fleet   int
	clients int
	// setups is how many times an untraced run sets the workload up;
	// setup_s is their median.
	setups int
	// config returns the engine settings the workload chooses and the
	// fleet's populate callback.
	config func(seed int64) (core.Config, func(i int) *storage.LocalDB)
	// reference computes the answers queries are checked against, once
	// per process and outside every timing.
	reference func(w *workloadDef, seed int64) (*oracle, error)
	// attach finishes a provisioned engine: credentials, queriers, a
	// Server where the workload has one, and the request stream.
	attach func(eng *core.Engine, w *workloadDef, seed int64, ref *oracle) (*env, error)
}

// env is one set-up instance of a workload.
type env struct {
	eng *core.Engine
	srv *core.Server // nil unless the workload runs behind a Server
	// request builds client c's i-th request; i == warmup is the untimed
	// warm-up query of the set-up. It must be safe for concurrent use by
	// the workload's clients.
	request func(c, i int) core.Request
	// check compares one response against the reference.
	check func(req core.Request, resp *core.Response) error
	// after runs once a query has returned, outside the timing (key
	// lifecycle steps of health-churn). Nil for stateless workloads.
	after func() error
}

const warmup = -1

func (e *env) submit(ctx context.Context, req core.Request) (*core.Response, error) {
	if e.srv != nil {
		return e.srv.Submit(ctx, req)
	}
	return e.eng.Execute(ctx, req)
}

func (e *env) close() {
	if e.srv != nil {
		e.srv.Close()
	}
}

func workloads() []*workloadDef {
	return []*workloadDef{fleetScan(), tenantMix(), healthChurn()}
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// queryID pins every query's identifier to (workload, seed, client,
// index), so per-device RNGs, fault draws and partitions repeat exactly
// across runs, traced or not.
func queryID(w *workloadDef, seed int64, c, i int) string {
	if i == warmup {
		return fmt.Sprintf("%s-%d-warmup", w.name, seed)
	}
	return fmt.Sprintf("%s-%d-c%d-%05d", w.name, seed, c, i)
}

// seedKey derives the run's key material from the seed, so two runs
// with one seed provision identical fleets.
func seedKey(seed int64, label string) tdscrypto.Key {
	return tdscrypto.DeriveKey(sha256.Sum256([]byte(fmt.Sprintf("tcqbench/%d", seed))), label)
}

// credentialExpiry outlives every simulated walk of the benchmark.
func credentialExpiry() time.Time { return obs.SimOrigin().Add(365 * 24 * time.Hour) }

// smartMeterConfig is the energy fleet of workload.DefaultSmartMeter.
// uniform replaces its Zipf district skew with a uniform draw.
func smartMeterConfig(seed int64, uniform bool) (core.Config, func(int) *storage.LocalDB) {
	w := workload.DefaultSmartMeter(seed)
	if uniform {
		w.Skew = 1
	}
	return core.Config{
		Schema: w.Schema(),
		Policy: &accessctl.Policy{Rules: []accessctl.Rule{
			{Role: "energy-analyst", AggregateOnly: true},
			{Role: "meter-reader", Tables: []string{"Power"}},
		}},
	}, w.HouseholdDB
}

func newQuerier(eng *core.Engine, id string, roles ...string) (*querier.Querier, error) {
	cred := eng.Authority().Issue(id, roles, credentialExpiry())
	return querier.New(id, eng.K1(), cred, eng.Schema())
}

// fleetScan: one client, S_Agg over the whole fleet at zero connection
// interval, so collection (batch commit path) dominates.
func fleetScan() *workloadDef {
	return &workloadDef{
		name: "fleet-scan", fleet: 50000, clients: 1, setups: 3,
		config: func(seed int64) (core.Config, func(int) *storage.LocalDB) {
			return smartMeterConfig(seed, false)
		},
		reference: smartMeterOracle,
		attach: func(eng *core.Engine, w *workloadDef, seed int64, ref *oracle) (*env, error) {
			q, err := newQuerier(eng, "edf", "energy-analyst")
			if err != nil {
				return nil, err
			}
			return &env{
				eng: eng,
				request: func(c, i int) core.Request {
					return core.Request{Querier: q, SQL: flagshipSQL, Kind: protocol.KindSAgg,
						QueryID: queryID(w, seed, c, i)}
				},
				check: func(_ core.Request, resp *core.Response) error {
					return ref.checkAverages(resp.Result)
				},
			}, nil
		},
	}
}

// mixProtocol is one entry of the tenant-mix rotation.
type mixProtocol struct {
	kind   protocol.Kind
	params protocol.Params
	sql    string
}

var tenantRotation = []mixProtocol{
	{protocol.KindBasic, protocol.Params{}, basicSQL},
	{protocol.KindSAgg, protocol.Params{}, flagshipSQL},
	{protocol.KindRnfNoise, protocol.Params{Nf: 2}, flagshipSQL},
	{protocol.KindCNoise, protocol.Params{}, flagshipSQL},
	{protocol.KindEDHist, protocol.Params{}, flagshipSQL},
}

// tenantMix: two tenants behind a default Server, each cycling through
// the five protocols over a fleet that fits the Server's device cache.
// Districts are drawn uniformly: with the default Zipf skew, how many of
// the 50 districts 1,000 households cover depends on the seed, and
// C_Noise's fake volume (G-1 per true tuple) with it. Uniform draws give
// G = 50 on every seed. Set-up is short, so it is repeated more often.
func tenantMix() *workloadDef {
	return &workloadDef{
		name: "tenant-mix", fleet: 1000, clients: 2, setups: 10,
		config: func(seed int64) (core.Config, func(int) *storage.LocalDB) {
			return smartMeterConfig(seed, true)
		},
		reference: smartMeterOracle,
		attach: func(eng *core.Engine, w *workloadDef, seed int64, ref *oracle) (*env, error) {
			qs := make([]*querier.Querier, w.clients)
			for c := range qs {
				q, err := newQuerier(eng, fmt.Sprintf("tenant-%c", 'a'+c), "energy-analyst", "meter-reader")
				if err != nil {
					return nil, err
				}
				qs[c] = q
			}
			return &env{
				eng: eng,
				srv: core.NewServer(eng, core.ServerConfig{}),
				request: func(c, i int) core.Request {
					// The warm-up runs ED_Hist, which pays distribution
					// discovery; clients start the rotation at different
					// protocols so the two are rarely in the same one.
					p := tenantRotation[len(tenantRotation)-1]
					if i != warmup {
						p = tenantRotation[(i+c*2)%len(tenantRotation)]
					}
					return core.Request{Querier: qs[c], SQL: p.sql, Kind: p.kind, Params: p.params,
						QueryID: queryID(w, seed, c, i)}
				},
				check: func(req core.Request, resp *core.Response) error {
					if req.Kind == protocol.KindBasic {
						return ref.checkRows(resp.Result)
					}
					return ref.checkAverages(resp.Result)
				},
			}, nil
		},
	}
}

// Health-churn fault mix: every fault class of faultplan at once. A
// crash costs the simulated T_Q a whole phase timeout plus backoff (65
// times the query's makespan), so at 2% T_Q counted little but crashes
// and swung with the seed, and at 0.05% a crash still set the median T_Q
// of one run in ten. At 0.02% a minority of queries re-assign a
// partition and a run's median query almost never does.
const (
	churnOffline = 0.05
	churnDrop    = 0.02
	churnCorrupt = 0.02
	churnSlow    = 0.10
	churnCrash   = 0.0002
	churnRevoke  = 2
	churnWaves   = 3
)

// churnInterval is the simulated gap between two token connections.
const churnInterval = time.Minute

// healthSQL closes the collection after about 80% of the fleet's walk.
func healthSQL(fleet int) string {
	window := time.Duration(fleet) * churnInterval * 4 / 5
	return `SELECT region, COUNT(*), AVG(V.cost) FROM Patient P, Visit V ` +
		`WHERE P.pid = V.pid GROUP BY region SIZE DURATION '` + window.String() + `'`
}

// revokeStride steps through the fleet's slots; it is a prime, so it
// visits every slot of a fleet whose size it does not divide.
const revokeStride = 7919

// revokeVictims names the devices query i revokes (i == warmup for the
// warm-up). They depend on the seed and i alone, so a query revokes the
// same devices in every run and instance, and no two queries of a run
// revoke the same device.
func revokeVictims(seed int64, fleet, i int) []string {
	start := (seed%int64(fleet) + int64(fleet)) % int64(fleet)
	victims := make([]string, churnRevoke)
	for j := range victims {
		k := int64((i+1)*churnRevoke + j)
		victims[j] = fmt.Sprintf("tds-%05d", (start+k*revokeStride)%int64(fleet))
	}
	return victims
}

// healthChurn: ED_Hist over seldom-connected tokens under every fault
// class, a staged key rotation and two revocations per query.
func healthChurn() *workloadDef {
	return &workloadDef{
		name: "health-churn", fleet: 20000, clients: 1, setups: 3,
		config: func(seed int64) (core.Config, func(int) *storage.LocalDB) {
			w := workload.DefaultHealth(seed)
			return core.Config{
				Schema: w.Schema(),
				Policy: &accessctl.Policy{Rules: []accessctl.Rule{
					{Role: "epidemiologist", AggregateOnly: true},
				}},
				ConnectionInterval: churnInterval,
			}, w.PatientDB
		},
		reference: func(_ *workloadDef, seed int64) (*oracle, error) {
			return &oracle{regions: healthRegions(seed), visits: workload.DefaultHealth(seed).Visits}, nil
		},
		attach: func(eng *core.Engine, w *workloadDef, seed int64, ref *oracle) (*env, error) {
			const id = "health-ministry"
			q, err := newQuerier(eng, id, "epidemiologist")
			if err != nil {
				return nil, err
			}
			sql := healthSQL(w.fleet)
			return &env{
				eng: eng,
				request: func(c, i int) core.Request {
					// One client: request and after never run concurrently.
					return core.Request{Querier: q, SQL: sql, Kind: protocol.KindEDHist,
						QueryID: queryID(w, seed, c, i),
						Faults: &faultplan.Plan{
							Seed:            seed*1_000_003 + int64(i),
							OfflineFraction: churnOffline, DropFraction: churnDrop,
							CorruptFraction: churnCorrupt, SlowFraction: churnSlow,
							CrashFraction: churnCrash,
							Rotation: &faultplan.RotationScript{
								AfterDeposits: w.fleet / 4, Waves: churnWaves,
								WaveEvery: w.fleet / 8, Revoke: revokeVictims(seed, w.fleet, i),
							},
						}}
				},
				check: func(_ core.Request, resp *core.Response) error {
					return ref.checkHealth(resp)
				},
				after: func() error {
					if err := eng.CompleteRotation(); err != nil {
						return fmt.Errorf("complete rotation: %w", err)
					}
					q, err = newQuerier(eng, id, "epidemiologist")
					return err
				},
			}, nil
		},
	}
}
