package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trustedcells/tcq/internal/storage"
)

// probe holds what a traced set-up measures from outside the engine: the
// SSI decorator injected through Config.SSI, the time spent inside the
// populate callback, and the live heap around ProvisionFleet.
type probe struct {
	ssi        *timedSSI
	populateNs atomic.Int64
	provision  time.Duration
	heapBefore uint64
	heapAfter  uint64
}

func newProbe() *probe { return &probe{ssi: newTimedSSI()} }

func (p *probe) timePopulate(f func(int) *storage.LocalDB) func(int) *storage.LocalDB {
	return func(i int) *storage.LocalDB {
		start := time.Now()
		db := f(i)
		p.populateNs.Add(time.Since(start).Nanoseconds())
		return db
	}
}

// liveHeap collects garbage and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// tracedRun sets up an untraced and a traced instance side by side and
// runs the same queries on both, alternating round by round, so both see
// the same heap and the same host. Every traced query must return the
// rows and Metrics of its untraced twin; the per-layer metrics come from
// the traced instance, and trace.overhead_ratio compares the two sides'
// query_s_p50.
func tracedRun(ctx context.Context, w *workloadDef, opt options, ref *oracle, res *result) error {
	plainEnv, plainWarm, _, err := setUp(ctx, w, opt.seed, ref, nil)
	if err != nil {
		return err
	}
	defer plainEnv.close()
	pr := newProbe()
	e, warm, _, err := setUp(ctx, w, opt.seed, ref, pr)
	if err != nil {
		return err
	}
	defer e.close()
	tally(res, plainWarm, warm)
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	profPath := filepath.Join(opt.outDir, fmt.Sprintf("tcqbench-%s-%d.cpu.pprof", w.name, opt.seed))
	prof, err := os.Create(profPath)
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return err
	}
	plain, traced := rounds(ctx, plainEnv, e, w.clients, opt.window, pr)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	if err := prof.Close(); err != nil {
		return err
	}
	tally(res, plain...)
	tally(res, traced...)

	plain, traced = append([]sample{plainWarm}, plain...), append([]sample{warm}, traced...)
	for i := range traced {
		if err := sameOutcome(plain[i], traced[i]); err != nil {
			res.fail("%s: traced run diverges: %v", traced[i].req.QueryID, err)
		}
	}
	plain, traced = plain[1:], traced[1:]

	shares, err := cpuShares(ctx, profPath)
	if err != nil {
		return err
	}
	ms, detail := perLayer(w, pr, ok(traced), shares)
	// The profile and the GC counters cover both sides' queries.
	n := len(plain) + len(traced)
	q := float64(n)
	ms = append(ms,
		lower("gc.alloc_mb_per_query", float64(after.TotalAlloc-before.TotalAlloc)/1e6/q, "MB", n),
		lower("gc.cycles_per_query", float64(after.NumGC-before.NumGC)/q, "count", n),
		lower("gc.pause_s_per_query", float64(after.PauseTotalNs-before.PauseTotalNs)/1e9/q, "s", n),
		lower("trace.overhead_ratio", median(walls(ok(traced)))/median(walls(ok(plain))), "ratio", len(traced)),
	)
	var rejected int64
	if e.srv != nil {
		rejected = e.srv.Stats().Rejected
		for _, t := range e.srv.TenantStats() {
			detail = append(detail,
				lower("server.queue_wait_s_p50."+t.Querier, t.QueueWaitP50.Seconds(), "s", int(t.Completed)),
				lower("server.queue_wait_s_p99."+t.Querier, t.QueueWaitP99.Seconds(), "s", int(t.Completed)))
		}
	}
	ms = append(ms, lower("server.rejected", float64(rejected), "count", len(traced)))
	res.Metrics, res.Detail = ms, detail
	return nil
}

// sameOutcome compares a traced query with its untraced twin: both
// failed, or both returned the same rows and identical Metrics.
func sameOutcome(a, b sample) error {
	if (a.err == nil) != (b.err == nil) {
		return fmt.Errorf("untraced error %v, traced error %v", a.err, b.err)
	}
	if a.err != nil {
		return nil
	}
	if !sameRows(a.resp.Result, b.resp.Result) {
		return fmt.Errorf("rows differ")
	}
	if !reflect.DeepEqual(*a.resp.Metrics, *b.resp.Metrics) {
		return fmt.Errorf("metrics differ:\nuntraced %+v\ntraced   %+v", *a.resp.Metrics, *b.resp.Metrics)
	}
	return nil
}

// rounds runs query i of every client on both instances, round after
// round until the window has passed; the untraced side goes first in
// even rounds and the traced side in odd ones, so neither always pays
// what the other leaves behind. Within a round the clients run
// concurrently, each waiting for its own reply.
func rounds(ctx context.Context, plainEnv, tracedEnv *env, clients int, window time.Duration, pr *probe) (plain, traced []sample) {
	t0 := time.Now()
	for i := 0; i == 0 || time.Since(t0) < window; i++ {
		if i%2 == 1 {
			traced = append(traced, round(ctx, tracedEnv, clients, i, pr)...)
		}
		plain = append(plain, round(ctx, plainEnv, clients, i, nil)...)
		if i%2 == 0 {
			traced = append(traced, round(ctx, tracedEnv, clients, i, pr)...)
		}
	}
	return plain, traced
}

func round(ctx context.Context, e *env, clients, i int, pr *probe) []sample {
	out := make([]sample, clients)
	var wg sync.WaitGroup
	for c := range out {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c] = runQuery(ctx, e, c, i, pr)
		}(c)
	}
	wg.Wait()
	return out
}

func walls(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.wall().Seconds()
	}
	return out
}

// ledgerKinds are the recovery-ledger entry kinds reported one by one;
// every other kind counts under ssi.ledger.other.
var ledgerKinds = []string{
	"deposit-timeout", "deposit-corrupt", "deposit-stale", "deposit-revoked",
	"reassign", "partition-abandoned", "rotation-begin", "rotation-wave",
}

// perLayer derives the per-layer metrics of the traced replay. Collection
// runs from the Execute/Submit call to the return of the query's last
// deposit call; aggregation and filtering from there to the call's
// return. A layer's self time is its interval minus the SSI calls inside
// it.
func perLayer(w *workloadDef, pr *probe, good []sample, shares cpuProfile) (ms, detail []metric) {
	n := len(good)
	var collect, collectSelf, perDevice, agg, aggSelf, depSelf, partSelf, readSelf, stored []float64
	var nt, ptds, tlocal, ratio []float64
	var envelopes, deposits, depCalls, rejected, partCalls, partTuples, checks, violations float64
	ledger := map[string]float64{}
	aggBy := map[string][]float64{}
	phases := map[string][]float64{}
	for _, s := range good {
		a, m := s.acct, s.resp.Metrics
		var c time.Duration
		if !a.lastDeposit.IsZero() {
			c = a.lastDeposit.Sub(s.start)
		}
		g := s.wall() - c
		collect = append(collect, c.Seconds())
		collectSelf = append(collectSelf, c.Seconds()-float64(a.collectNs)/1e9)
		perDevice = append(perDevice, c.Seconds()*1e6/float64(max(m.EligibleDevices, 1)))
		agg = append(agg, g.Seconds())
		aggSelf = append(aggSelf, g.Seconds()-float64(a.pendingNs)/1e9)
		aggBy[s.req.Kind.String()] = append(aggBy[s.req.Kind.String()], g.Seconds())
		depSelf = append(depSelf, float64(a.depositNs)/1e9)
		partSelf = append(partSelf, float64(a.partitionNs)/1e9)
		readSelf = append(readSelf, float64(a.readNs)/1e9)
		stored = append(stored, float64(a.bytesStored)/1e6)
		envelopes += float64(a.envelopes)
		deposits += float64(m.DepositedDevices)
		depCalls += float64(a.depositCalls)
		rejected += float64(a.rejected)
		partCalls += float64(a.partitionCalls)
		partTuples += float64(a.partitionTuples)
		checks += float64(s.resp.Integrity.Checks)
		violations += float64(s.resp.Integrity.Violations)
		nt = append(nt, float64(m.Nt))
		ptds = append(ptds, float64(m.PTDS))
		tlocal = append(tlocal, float64(m.TLocal)/1e6)
		if c := s.resp.Conformance; c != nil {
			ratio = append(ratio, c.Ratio)
		}
		for _, e := range m.Ledger {
			ledger[ledgerName(e.Kind)]++
		}
		for _, p := range m.Phases {
			phases[p.Name] = append(phases[p.Name], float64(p.Duration)/1e6)
		}
	}
	q := float64(max(n, 1))
	populate := time.Duration(pr.populateNs.Load())
	ms = []metric{
		lower("workload.populate_s", populate.Seconds(), "s", w.fleet),
		lower("provision.enroll_s", (pr.provision - populate).Seconds(), "s", w.fleet),
		lower("provision.heap_b_per_device", (float64(pr.heapAfter)-float64(pr.heapBefore))/float64(w.fleet), "B", w.fleet),
		lower("collect.s_per_query", median(collect), "s", n),
		lower("collect.self_s_per_query", median(collectSelf), "s", n),
		lower("collect.us_per_device", median(perDevice), "us", n),
		lower("collect.envelopes_per_deposit", envelopes/max(deposits, 1), "ratio", n),
		lower("aggregate.s_per_query", median(agg), "s", n),
		lower("aggregate.self_s_per_query", median(aggSelf), "s", n),
		lower("ssi.deposit.calls", depCalls/q, "count/query", n),
		lower("ssi.deposit.envelopes", envelopes/q, "count/query", n),
		lower("ssi.deposit.self_s", median(depSelf), "s", n),
		lower("ssi.deposit.rejected", rejected/q, "count/query", n),
		lower("ssi.partition.calls", partCalls/q, "count/query", n),
		lower("ssi.partition.tuples", partTuples/q, "count/query", n),
		lower("ssi.partition.self_s", median(partSelf), "s", n),
		lower("ssi.read.self_s", median(readSelf), "s", n),
		lower("ssi.bytes_stored_mb", median(stored), "MB", n),
	}
	for _, k := range append(ledgerKinds, "other") {
		ms = append(ms, lower("ssi.ledger."+k, ledger[k]/q, "count/query", n))
	}
	ms = append(ms,
		lower("verify.checks_per_query", checks/q, "count/query", n),
		lower("verify.violations", violations, "count", n),
		simulated(lower("sim.nt", median(nt), "sim_tuples", n)),
		simulated(lower("sim.ptds", median(ptds), "sim_tds", n)),
		simulated(lower("sim.tlocal_ms", median(tlocal), "sim_ms", n)),
		simulated(lower("conformance.tq_ratio", median(ratio), "ratio", len(ratio))),
		lower("cpu.samples", float64(shares.samples), "count", shares.samples),
	)
	for _, b := range cpuBuckets {
		ms = append(ms, lower("cpu.share."+b, shares.share(b), "share", shares.samples))
	}
	if len(aggBy) > 1 {
		for _, k := range sortedKeys(aggBy) {
			detail = append(detail, lower("aggregate.s_per_query."+k, median(aggBy[k]), "s", len(aggBy[k])))
		}
	}
	for _, k := range sortedKeys(phases) {
		detail = append(detail, simulated(lower("sim.phase."+k+"_ms", median(phases[k]), "sim_ms", len(phases[k]))))
	}
	return ms, detail
}

func ledgerName(kind string) string {
	for _, k := range ledgerKinds {
		if k == kind {
			return k
		}
	}
	return "other"
}

// cpuBuckets are the packages the CPU table reports. "gc" is every
// sample under a garbage-collector worker or assist; "crypto" and
// "runtime" gather the standard library's crypto packages and the rest
// of the runtime (allocation, copying, maps); "other" is the remainder.
var cpuBuckets = []string{"tds", "sqlexec", "tdscrypto", "storage", "ssi", "core", "math_rand", "crypto", "runtime", "gc", "other"}

var cpuPackages = map[string]string{
	"github.com/trustedcells/tcq/internal/tds":       "tds",
	"github.com/trustedcells/tcq/internal/sqlexec":   "sqlexec",
	"github.com/trustedcells/tcq/internal/tdscrypto": "tdscrypto",
	"github.com/trustedcells/tcq/internal/storage":   "storage",
	"github.com/trustedcells/tcq/internal/ssi":       "ssi",
	"github.com/trustedcells/tcq/internal/core":      "core",
	"math/rand": "math_rand",
}

// gcRoots mark a sample as garbage-collection work wherever its leaf is.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// cpuProfile is a CPU profile's self time bucketed by the package of
// each sample's leaf frame.
type cpuProfile struct {
	samples int
	total   time.Duration
	buckets map[string]time.Duration
}

func (p cpuProfile) share(bucket string) float64 {
	if p.total == 0 {
		return 0
	}
	return p.buckets[bucket].Seconds() / p.total.Seconds()
}

// cpuSamplePeriod is runtime/pprof's fixed 100 Hz sampling interval.
const cpuSamplePeriod = 10 * time.Millisecond

// cpuShares reads a CPU profile through `go tool pprof -traces`, which
// ships with the Go toolchain, and buckets every sample.
func cpuShares(ctx context.Context, path string) (cpuProfile, error) {
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return cpuProfile{}, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(out)
}

// parseTraces buckets the stacks of `pprof -traces` output. Each stack
// is a block between separator lines; its first line holds the sample
// value and the leaf frame, the following lines its callers.
func parseTraces(out []byte) (cpuProfile, error) {
	p := cpuProfile{buckets: map[string]time.Duration{}}
	var value time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			p.total += value
			p.buckets[bucketOf(stack)] += value
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || !strings.HasPrefix(line, " ") {
			continue // header lines
		}
		if len(stack) == 0 && len(fields) >= 2 {
			v, err := time.ParseDuration(fields[0])
			if err != nil {
				return p, fmt.Errorf("pprof traces: bad sample value %q", fields[0])
			}
			value = v
			stack = append(stack, fields[1])
			continue
		}
		stack = append(stack, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return p, err
	}
	p.samples = int(p.total / cpuSamplePeriod)
	return p, nil
}

func bucketOf(stack []string) string {
	for _, f := range stack {
		for _, r := range gcRoots {
			if f == r {
				return "gc"
			}
		}
	}
	pkg := packageOf(stack[0])
	switch b, ok := cpuPackages[pkg]; {
	case ok:
		return b
	case strings.HasPrefix(pkg, "crypto/"):
		return "crypto"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// packageOf returns the import path of a pprof function name such as
// "github.com/x/y.(*T).M" or "math/rand.(*rngSource).Int63".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
