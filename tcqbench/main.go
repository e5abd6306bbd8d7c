// Tcqbench is the repository's benchmark. It runs one named workload
// against the engine from a single process, checks every answer against
// a reference, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer metrics of a traced run) by name, with unit, sample
// count and direction. The last line of its output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
//	bash tcqbench/run.sh --workload fleet-scan --seed 1 --seconds 20 --trace 0
//
// WORKLOADS.md says why each workload exists and what it stresses.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/trustedcells/tcq/internal/core"
	"github.com/trustedcells/tcq/internal/obs"
)

// setupMargin is what a run may take beyond its measured window for the
// reference, the set-ups and the last query's overrun. The window plus
// this margin bounds every query the run issues, so a hung engine fails
// the run instead of outliving it.
const setupMargin = 150 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tcqbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fleet-scan, tenant-mix or health-churn")
	seed := fs.Int64("seed", 1, "workload seed: databases, keys, query IDs and fault draws derive from it")
	seconds := fs.Int("seconds", 20, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	outDir := fs.String("out", ".bench_build", "directory for the traced run's CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "tcqbench: need --workload fleet-scan|tenant-mix|health-churn, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	opt := options{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1, outDir: *outDir}
	res, err := benchmark(w, opt)
	if err != nil {
		fmt.Fprintf(stderr, "tcqbench: %v\n", err)
		return 1
	}
	if err := res.write(stdout); err != nil {
		fmt.Fprintf(stderr, "tcqbench: %v\n", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

type options struct {
	seed   int64
	window time.Duration
	trace  bool
	outDir string
}

// sample is one executed query.
type sample struct {
	req        core.Request
	start, end time.Time
	resp       *core.Response
	err        error // execution error, oracle mismatch or lifecycle failure
	afterWall  time.Duration
	acct       ssiAccount // traced runs only
}

func (s *sample) wall() time.Duration { return s.end.Sub(s.start) }

// benchmark runs one workload end to end and returns its report.
func benchmark(w *workloadDef, opt options) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opt.window+setupMargin)
	defer cancel()
	ref, err := w.reference(w, opt.seed)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.name, Trace: opt.trace, Seconds: int(opt.window / time.Second),
		Host: describeHost(opt.seed)}
	if opt.trace {
		err = tracedRun(ctx, w, opt, ref, res)
	} else {
		err = plainRun(ctx, w, opt, ref, res)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// setUp builds one instance of the workload: engine construction,
// provisioning, credentials, and the untimed warm-up query that fills
// the plan and distribution-discovery caches. The returned duration is
// the set-up time; the oracle check of the warm-up is excluded from it.
func setUp(ctx context.Context, w *workloadDef, seed int64, ref *oracle, pr *probe) (*env, sample, time.Duration, error) {
	start := time.Now()
	cfg, populate := w.config(seed)
	cfg.AuthorityKey = seedKey(seed, "authority")
	cfg.MasterKey = seedKey(seed, "master")
	cfg.Seed = seed
	if pr != nil {
		cfg.SSI = pr.ssi
		populate = pr.timePopulate(populate)
		pr.heapBefore = liveHeap()
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, sample{}, 0, err
	}
	provStart := time.Now()
	if err := eng.ProvisionFleet(w.fleet, populate); err != nil {
		return nil, sample{}, 0, fmt.Errorf("provision: %w", err)
	}
	if pr != nil {
		pr.provision = time.Since(provStart)
		pr.heapAfter = liveHeap()
	}
	e, err := w.attach(eng, w, seed, ref)
	if err != nil {
		return nil, sample{}, 0, err
	}
	built := time.Since(start)
	warm := runQuery(ctx, e, 0, warmup, pr)
	return e, warm, built + warm.wall() + warm.afterWall, nil
}

// runQuery executes one request, then checks it and runs the workload's
// after-query step; only the Execute/Submit call is timed.
func runQuery(ctx context.Context, e *env, c, i int, pr *probe) sample {
	s := sample{req: e.request(c, i)}
	s.start = time.Now()
	s.resp, s.err = e.submit(ctx, s.req)
	s.end = time.Now()
	if pr != nil {
		s.acct = pr.ssi.take(s.req.QueryID)
	}
	if s.err == nil {
		s.err = e.check(s.req, s.resp)
	}
	if s.err == nil {
		s.err = checkIntegrity(s.resp)
	}
	if e.after != nil {
		t := time.Now()
		if err := e.after(); err != nil && s.err == nil {
			s.err = err
		}
		s.afterWall = time.Since(t)
	}
	return s
}

// closedLoop runs the workload's clients, each sending its next query
// only after the previous one returned and stopping at the first query
// boundary past the window. next[c] is client c's next query index and
// is advanced past the queries it sends, so a run never repeats a
// query. It returns the samples and the time from the first query's
// start to the last one's end.
func closedLoop(ctx context.Context, e *env, next []int, window time.Duration) ([]sample, time.Duration) {
	per := make([][]sample, len(next))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range next {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for first := next[c]; next[c] == first || time.Since(t0) < window; next[c]++ {
				per[c] = append(per[c], runQuery(ctx, e, c, next[c], nil))
			}
		}(c)
	}
	wg.Wait()
	took := time.Since(t0)
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out, took
}

// tally counts samples into the correctness account.
func tally(res *result, ss ...sample) {
	for _, s := range ss {
		res.Attempted++
		if s.err != nil {
			res.fail("%s: %v", s.req.QueryID, s.err)
		}
	}
}

// plainRun is the untraced run. It sets the workload up w.setups times
// and measures an equal share of the window on each fresh instance, so
// the set-ups are spread over the whole run as the queries are, and one
// slow stretch of a shared host does not set their median. A share's
// budget gives back what the earlier shares overran, so the shares add
// up to the window. The memory mark is reset after each set-up and read
// after its share: peak_rss_mb is the highest mark of the measured
// queries, without set-ups or reference data.
func plainRun(ctx context.Context, w *workloadDef, opt options, ref *oracle, res *result) error {
	var setups, peaks []float64
	var samples []sample
	var elapsed time.Duration
	next := make([]int, w.clients)
	total0, steal0, err := cpuTimes()
	if err != nil {
		return err
	}
	for k := 1; k <= w.setups; k++ {
		e, warm, d, err := setUp(ctx, w, opt.seed, ref, nil)
		if err != nil {
			return err
		}
		tally(res, warm)
		setups = append(setups, d.Seconds())
		share := opt.window*time.Duration(k)/time.Duration(w.setups) - elapsed
		peak, ss, took, err := measure(ctx, e, next, share)
		e.close()
		// Collect the instance now, so the next set-up does not pay
		// for it.
		runtime.GC()
		if err != nil {
			return err
		}
		tally(res, ss...)
		samples = append(samples, ss...)
		peaks = append(peaks, peak)
		elapsed += took
	}
	total1, steal1, err := cpuTimes()
	if err != nil {
		return err
	}
	res.Metrics, res.Detail = endToEnd(setups, samples, elapsed, slices.Max(peaks))
	// The share of the host's CPU time the hypervisor took during the
	// run: wall-clock figures of runs made under different steal are
	// not comparable.
	res.Detail = append(res.Detail, lower("host.cpu_steal_share", (steal1-steal0)/(total1-total0), "share", 1))
	return nil
}

// measure runs the closed loop on one instance for its share of the
// window and returns the resident-set peak in MB it reached. Memory the
// earlier instances freed is handed back to the kernel first, so the
// mark starts from this instance's own live data.
func measure(ctx context.Context, e *env, next []int, share time.Duration) (float64, []sample, time.Duration, error) {
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return 0, nil, 0, err
	}
	ss, took := closedLoop(ctx, e, next, share)
	peak, err := peakRSSMB()
	return peak, ss, took, err
}

// ok returns the samples that completed and passed their checks.
func ok(ss []sample) []sample {
	var out []sample
	for _, s := range ss {
		if s.err == nil {
			out = append(out, s)
		}
	}
	return out
}

// endToEnd derives the end-to-end metrics of a measured window that
// lasted elapsed.
func endToEnd(setups []float64, samples []sample, elapsed time.Duration, peakRSS float64) (ms, detail []metric) {
	good := ok(samples)
	var tq, load, cov []float64
	for _, s := range good {
		m := s.resp.Metrics
		tq = append(tq, m.TQ.Seconds())
		load = append(load, float64(m.LoadBytes)/1e6)
		cov = append(cov, m.CoverageRatio)
	}
	n := len(good)
	walls := walls(good)
	ms = []metric{
		lower("setup_s", median(setups), "s", len(setups)),
		lower("query_s_p50", median(walls), "s", n),
		higher("queries_per_s", float64(n)/elapsed.Seconds(), "1/s", n),
		lower("peak_rss_mb", peakRSS, "MB", len(setups)),
		simulated(lower("sim_tq_s", median(tq), "sim_s", n)),
		simulated(lower("sim_load_q_mb", median(load), "sim_MB", n)),
		higher("coverage_ratio", median(cov), "ratio", n),
	}
	// A tail percentile is reported only with at least ten samples
	// beyond it.
	if n >= 100 {
		detail = append(detail, lower("query_s_p90", obs.Quantile(walls, 0.9), "s", n))
	}
	detail = append(detail, perProtocolWall(good)...)
	return ms, detail
}

// perProtocolWall splits query_s_p50 by protocol when a run mixes them.
func perProtocolWall(good []sample) []metric {
	by := map[string][]float64{}
	for _, s := range good {
		k := s.req.Kind.String()
		by[k] = append(by[k], s.wall().Seconds())
	}
	if len(by) < 2 {
		return nil
	}
	var out []metric
	for _, k := range sortedKeys(by) {
		out = append(out, lower("query_s_p50."+k, median(by[k]), "s", len(by[k])))
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
