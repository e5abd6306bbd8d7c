package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/trustedcells/tcq/internal/core"
	"github.com/trustedcells/tcq/internal/sqlexec"
	"github.com/trustedcells/tcq/internal/storage"
)

const testSeed = 7

// small returns the workload resized for a unit test.
func small(t *testing.T, name string) *workloadDef {
	t.Helper()
	w := findWorkload(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	c := *w
	c.fleet = map[string]int{"fleet-scan": 300, "tenant-mix": 200, "health-churn": 400}[name]
	return &c
}

// fixedRounds runs n rounds of the workload's clients on e.
func fixedRounds(e *env, clients, n int, pr *probe) []sample {
	var out []sample
	for i := 0; i < n; i++ {
		out = append(out, round(context.Background(), e, clients, i, pr)...)
	}
	return out
}

// TestTracedRunMatchesUntraced replays the same queries on an untraced
// and a traced instance with one seed: the SSI decorator and the timed
// populate callback must change no row and no Metrics field.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, name := range []string{"fleet-scan", "tenant-mix", "health-churn"} {
		t.Run(name, func(t *testing.T) {
			w := small(t, name)
			ref, err := w.reference(w, testSeed)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			run := func(pr *probe) []sample {
				e, warm, _, err := setUp(ctx, w, testSeed, ref, pr)
				if err != nil {
					t.Fatal(err)
				}
				defer e.close()
				return append([]sample{warm}, fixedRounds(e, w.clients, 3, pr)...)
			}
			plain := run(nil)
			pr := newProbe()
			traced := run(pr)
			if len(plain) != len(traced) {
				t.Fatalf("%d untraced queries, %d traced", len(plain), len(traced))
			}
			for i := range plain {
				if plain[i].err != nil || traced[i].err != nil {
					t.Fatalf("%s: untraced err %v, traced err %v", plain[i].req.QueryID, plain[i].err, traced[i].err)
				}
				if err := sameOutcome(plain[i], traced[i]); err != nil {
					t.Errorf("%s: %v", plain[i].req.QueryID, err)
				}
				if a := traced[i].acct; a.depositCalls == 0 || a.lastDeposit.IsZero() || a.bytesStored == 0 {
					t.Errorf("%s: the decorator saw no deposits or no store: %+v", traced[i].req.QueryID, a)
				}
			}
			if pr.populateNs.Load() == 0 || pr.provision == 0 {
				t.Error("populate callback or provisioning not timed")
			}
		})
	}
}

// perturbed returns a deep copy of res with fn applied to its rows.
func perturbed(res *sqlexec.Result, fn func(rows []storage.Row) []storage.Row) *sqlexec.Result {
	rows := make([]storage.Row, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = r.Clone()
	}
	return &sqlexec.Result{Columns: res.Columns, Rows: fn(rows)}
}

// answers runs n rounds of the workload's queries, which must all pass.
func answers(t *testing.T, w *workloadDef, n int) ([]sample, *oracle) {
	t.Helper()
	ref, err := w.reference(w, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	e, _, _, err := setUp(context.Background(), w, testSeed, ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	ss := fixedRounds(e, w.clients, n, nil)
	for _, s := range ss {
		if s.err != nil {
			t.Fatalf("%s: %v", s.req.QueryID, s.err)
		}
	}
	return ss, ref
}

func TestOracleRejectsPerturbedResult(t *testing.T) {
	ss, ref := answers(t, small(t, "tenant-mix"), 5)
	var basic, agg *sqlexec.Result
	for _, s := range ss {
		if s.req.Kind.String() == "Basic" {
			basic = s.resp.Result
		} else {
			agg = s.resp.Result
		}
	}
	if basic == nil || agg == nil || len(basic.Rows) < 2 || len(agg.Rows) < 2 {
		t.Fatal("tenant-mix did not produce a Basic and an aggregate answer")
	}
	aggCases := map[string]func([]storage.Row) []storage.Row{
		"avg off by 1e-6": func(rows []storage.Row) []storage.Row {
			v, _ := rows[0][1].AsFloat()
			rows[0][1] = storage.Float(v * (1 + 1e-6))
			return rows
		},
		"group dropped":  func(rows []storage.Row) []storage.Row { return rows[1:] },
		"group repeated": func(rows []storage.Row) []storage.Row { return append(rows[1:], rows[1]) },
	}
	for name, fn := range aggCases {
		if err := ref.checkAverages(perturbed(agg, fn)); err == nil {
			t.Errorf("checkAverages accepted a result with the %s", name)
		}
	}
	rowCases := map[string]func([]storage.Row) []storage.Row{
		"row dropped":    func(rows []storage.Row) []storage.Row { return rows[1:] },
		"row duplicated": func(rows []storage.Row) []storage.Row { return append(rows[1:], rows[1]) },
		"value changed": func(rows []storage.Row) []storage.Row {
			rows[0][0] = storage.Int(-1)
			return rows
		},
	}
	for name, fn := range rowCases {
		if err := ref.checkRows(perturbed(basic, fn)); err == nil {
			t.Errorf("checkRows accepted a result with a %s", name)
		}
	}

	hs, href := answers(t, small(t, "health-churn"), 1)
	resp := hs[0].resp
	healthCases := map[string]func(*core.Response){
		"count off by one": func(r *core.Response) {
			n, _ := r.Result.Rows[0][1].AsInt()
			r.Result.Rows[0][1] = storage.Int(n + 1)
		},
		"group outside the domain": func(r *core.Response) { r.Result.Rows[0][0] = storage.Str("region-99") },
		"over-counted account":     func(r *core.Response) { r.Metrics.OfflineDevices += r.Metrics.EligibleDevices },
	}
	for name, fn := range healthCases {
		m := *resp.Metrics
		bad := &core.Response{Metrics: &m, Result: perturbed(resp.Result, func(r []storage.Row) []storage.Row { return r })}
		fn(bad)
		if err := href.checkHealth(bad); err == nil {
			t.Errorf("checkHealth accepted a run with a %s", name)
		}
	}
	if err := checkIntegrity(&core.Response{Integrity: &core.IntegrityReport{Verified: true, Violations: 1}}); err == nil {
		t.Error("checkIntegrity accepted a violation")
	}
}

func TestParseTraces(t *testing.T) {
	out := []byte(`File: tcqbench
Type: cpu
Duration: 1s, Total samples = 100ms (10%)
-----------+-------------------------------------------------------
      40ms   math/rand.seedrand (inline)
             math/rand.(*rngSource).Seed
             github.com/trustedcells/tcq/internal/core.(*Engine).run
-----------+-------------------------------------------------------
      30ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      20ms   github.com/trustedcells/tcq/internal/storage.(*LocalDB).Insert
-----------+-------------------------------------------------------
      10ms   crypto/internal/fips140/aes.encryptBlock
-----------+-------------------------------------------------------
`)
	p, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	if p.samples != 10 {
		t.Errorf("samples = %d, want 10", p.samples)
	}
	for b, want := range map[string]float64{"math_rand": 0.4, "gc": 0.3, "storage": 0.2, "crypto": 0.1, "core": 0} {
		if got := p.share(b); got < want-1e-9 || got > want+1e-9 {
			t.Errorf("share(%s) = %v, want %v", b, got, want)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fleet-scan", "--trace", "2"},
		{"--workload", "fleet-scan", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q", args, code, stdout.String())
		}
		if !strings.Contains(stderr.String(), "tcqbench") {
			t.Errorf("run(%v) explained nothing on stderr", args)
		}
	}
}

// Each health-churn query revokes devices no other query of the run
// revokes.
func TestRevokeVictimsDistinct(t *testing.T) {
	for _, fleet := range []int{400, 20000} {
		seen := map[string]int{}
		for i := warmup; i < 150; i++ {
			for _, v := range revokeVictims(-3, fleet, i) {
				if prev, dup := seen[v]; dup {
					t.Fatalf("fleet %d: queries %d and %d both revoke %s", fleet, prev, i, v)
				}
				seen[v] = i
			}
		}
	}
}
